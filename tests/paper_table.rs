//! The paper table (`ccfuzz_bench::TABLE`): every row that runs no GA
//! campaign reproduces its recorded mark, every GA row yields its figures
//! and a verdict at a small population, and EXPERIMENTS.md lists exactly
//! the table's rows. The `paper` binary checks the GA rows' marks at quick
//! scale in release builds.

use cc_fuzz::fuzz::GaParams;
use ccfuzz_bench::{Evidence, Mark, Row, Scale, Source, TABLE};

fn is_hunt(row: &Row) -> bool {
    matches!(row.source, Source::Hunt { .. })
}

/// Every figure of `row` extracts non-empty series or text from `ev`.
fn assert_figures_non_empty(row: &Row, ev: &Evidence) {
    for (figure, heading) in row.figures {
        let (series, text) = figure.extract(ev);
        assert!(
            !series.is_empty() || !text.is_empty(),
            "{}: `{heading}` extracted nothing",
            row.name
        );
        for s in &series {
            assert!(
                !s.points.is_empty(),
                "{}: series `{}` is empty",
                row.name,
                s.name
            );
        }
    }
}

#[test]
fn rows_without_a_campaign_reproduce_their_marks() {
    for row in TABLE.iter().filter(|r| !is_hunt(r)) {
        let ev = row.collect(Scale::Quick, None);
        assert_figures_non_empty(row, &ev);
        let verdict = (row.predicate)(&ev);
        assert_eq!(
            Mark::of(&verdict),
            row.mark,
            "{}: verdict differs from the recorded mark: {}",
            row.name,
            verdict.numbers
        );
    }
}

#[test]
fn campaign_rows_yield_figures_and_a_verdict_at_a_small_population() {
    let small = GaParams {
        islands: 2,
        population_per_island: 3,
        generations: 1,
        migration_interval: 1,
        report_top_k: 2,
        ..GaParams::quick()
    };
    for row in TABLE.iter().filter(|r| is_hunt(r)) {
        let ev = row.collect(Scale::Quick, Some(small));
        assert!(
            !ev.runs.is_empty() && !ev.histories.is_empty(),
            "{}",
            row.name
        );
        assert_figures_non_empty(row, &ev);
        let verdict = (row.predicate)(&ev);
        assert!(!verdict.numbers.is_empty(), "{}", row.name);
    }
}

#[test]
fn experiments_md_lists_exactly_the_table_rows() {
    let doc = include_str!("../EXPERIMENTS.md");
    let listed: Vec<&str> = doc
        .lines()
        .filter(|line| line.starts_with("| "))
        .filter_map(|line| line.split("--bin paper -- ").nth(1))
        .filter_map(|rest| rest.split('`').next())
        .collect();
    let rows: Vec<&str> = TABLE.iter().map(|r| r.name).collect();
    assert_eq!(listed, rows, "EXPERIMENTS.md's figure table is out of date");
}

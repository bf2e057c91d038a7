//! Packet model.
//!
//! The simulator is packet-granular: the CCA flow sends fixed-size (MSS)
//! data packets identified by a packet-level sequence number, the receiver
//! returns ACK packets carrying a cumulative ACK plus SACK blocks, and the
//! cross-traffic source injects opaque packets that only occupy queue space
//! and link capacity.

use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// Default maximum segment size in bytes (Ethernet MTU minus typical
/// IP + TCP headers), used for both the CCA flow and cross traffic.
pub const DEFAULT_MSS: u32 = 1448;

/// Identifies which traffic source a packet belongs to.
///
/// The simulator supports N concurrent congestion-controlled flows; each
/// carries its index (flow 0 is the "primary" flow, the only one that exists
/// in single-flow scenarios).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FlowId {
    /// A congestion-controlled flow under test, identified by its index.
    Cca(u32),
    /// The unresponsive cross-traffic source.
    CrossTraffic,
}

impl FlowId {
    /// The primary (index 0) congestion-controlled flow.
    pub const PRIMARY: FlowId = FlowId::Cca(0);
}

/// A data packet traversing the forward path (sender → gateway → sink).
///
/// `Copy`: the packet is a flat 32-byte record, so moving it through the
/// queue, the calendar's packet pool and the statistics never touches the
/// allocator. It carries only what the network and the receiver read:
/// whether a send is a retransmission lives in the sender's records.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DataPacket {
    /// Owning flow.
    pub flow: FlowId,
    /// Packet-level sequence number. Cross-traffic packets carry their
    /// injection index here; CCA packets carry the transport sequence number.
    pub seq: u64,
    /// Wire size in bytes.
    pub size: u32,
    /// ECN-Capable Transport: `true` when the sender negotiated ECN, so an
    /// AQM gateway may mark the packet instead of dropping it (RFC 3168).
    pub ect: bool,
    /// Congestion Experienced: set by the gateway queue when the active
    /// queue-management discipline decides to mark rather than drop.
    pub ce: bool,
    /// Time the packet entered its current hop's queue (set by the gateway
    /// on every enqueue).
    pub enqueued_at: SimTime,
}

impl DataPacket {
    /// Creates a data packet for the primary (index 0) CCA flow; the
    /// simulator re-tags it with the sending flow.
    pub fn cca(seq: u64, size: u32) -> Self {
        DataPacket {
            flow: FlowId::PRIMARY,
            seq,
            size,
            ect: false,
            ce: false,
            enqueued_at: SimTime::ZERO,
        }
    }

    /// Creates a cross-traffic packet (never ECN-capable: the unresponsive
    /// source would ignore marks, so an AQM must drop it).
    pub fn cross_traffic(index: u64, size: u32) -> Self {
        DataPacket {
            flow: FlowId::CrossTraffic,
            ..DataPacket::cca(index, size)
        }
    }
}

/// A selective acknowledgement block: packets in `[start, end)` have been
/// received (packet-level sequence numbers, end exclusive).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SackBlock {
    /// First packet covered by the block.
    pub start: u64,
    /// One past the last packet covered by the block.
    pub end: u64,
}

impl SackBlock {
    /// Number of packets covered by the block.
    pub fn len(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// `true` if the block covers no packets.
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }

    /// `true` if the block covers `seq`.
    pub fn contains(&self, seq: u64) -> bool {
        (self.start..self.end).contains(&seq)
    }
}

/// Maximum SACK blocks an ACK can carry (TCP options fit 3–4 blocks).
pub const MAX_SACK_BLOCKS: usize = 4;

/// A fixed-capacity, inline list of SACK blocks.
///
/// Replaces the previous `Vec<SackBlock>`: ACKs are generated once per data
/// packet (or two, with delayed ACKs), and a heap allocation per ACK was the
/// single largest allocator load in the simulator's hot loop. The list lives
/// inline in [`AckPacket`], which keeps the whole ACK `Copy`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SackList {
    blocks: [SackBlock; MAX_SACK_BLOCKS],
    len: u8,
}

impl SackList {
    /// An empty list.
    pub const fn new() -> Self {
        SackList {
            blocks: [SackBlock { start: 0, end: 0 }; MAX_SACK_BLOCKS],
            len: 0,
        }
    }

    /// Number of blocks stored.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// `true` when no blocks are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends a block; silently ignored once [`MAX_SACK_BLOCKS`] is reached
    /// (exactly the cap real TCP option space imposes).
    pub fn push(&mut self, block: SackBlock) {
        if (self.len as usize) < MAX_SACK_BLOCKS {
            self.blocks[self.len as usize] = block;
            self.len += 1;
        }
    }

    /// The stored blocks as a slice.
    pub fn as_slice(&self) -> &[SackBlock] {
        &self.blocks[..self.len as usize]
    }

    /// Iterates over the stored blocks.
    pub fn iter(&self) -> std::slice::Iter<'_, SackBlock> {
        self.as_slice().iter()
    }

    /// `true` if any stored block equals `block`.
    pub fn contains(&self, block: &SackBlock) -> bool {
        self.as_slice().contains(block)
    }
}

impl Default for SackList {
    fn default() -> Self {
        Self::new()
    }
}

impl std::ops::Deref for SackList {
    type Target = [SackBlock];
    fn deref(&self) -> &[SackBlock] {
        self.as_slice()
    }
}

impl<'a> IntoIterator for &'a SackList {
    type Item = &'a SackBlock;
    type IntoIter = std::slice::Iter<'a, SackBlock>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl FromIterator<SackBlock> for SackList {
    fn from_iter<I: IntoIterator<Item = SackBlock>>(iter: I) -> Self {
        let mut list = SackList::new();
        for block in iter {
            list.push(block);
        }
        list
    }
}

/// An acknowledgement travelling on the reverse path (sink → sender).
///
/// `Copy`: the SACK blocks are stored inline ([`SackList`]), so generating,
/// queueing and delivering an ACK is allocation-free. It carries only what
/// the sender reads; ACKs cross the reverse path on a fixed per-path delay,
/// so they have no wire size.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AckPacket {
    /// Cumulative ACK: all packets with `seq < cum_ack` have been received.
    pub cum_ack: u64,
    /// SACK blocks above the cumulative ACK (most recently changed first),
    /// empty when nothing above it has arrived.
    pub sack_blocks: SackList,
    /// ECN Echo: number of CE-marked data packets this ACK reports (0 when
    /// ECN is off or nothing was marked). Real TCP latches a single ECE bit
    /// until CWR; carrying the exact count instead keeps the feedback loop
    /// conservation-testable (every mark is echoed exactly once) and gives
    /// DCTCP its per-ACK mark fraction without a separate option.
    pub ece_marks: u64,
}

/// Handle to a [`DataPacket`] parked in a [`PacketPool`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PacketRef(pub u32);

/// Handle to an [`AckPacket`] parked in a [`PacketPool`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AckRef(pub u32);

/// Slab storage with a free list: O(1) alloc/free, no per-packet heap
/// allocation once warm, and stable `u32` handles small enough to ride
/// inside calendar events.
#[derive(Clone, Debug)]
struct Slab<T> {
    slots: Vec<T>,
    free: Vec<u32>,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<T: Copy> Slab<T> {
    fn alloc(&mut self, value: T) -> u32 {
        match self.free.pop() {
            Some(idx) => {
                self.slots[idx as usize] = value;
                idx
            }
            None => {
                let idx = self.slots.len() as u32;
                self.slots.push(value);
                idx
            }
        }
    }

    /// Copies the value out and recycles the slot. The handle must come from
    /// a prior `alloc` and must not be taken twice (enforced by the event
    /// calendar's single-consumer discipline, checked in debug builds).
    fn take(&mut self, idx: u32) -> T {
        debug_assert!(!self.free.contains(&idx), "double take of pool slot {idx}");
        let value = self.slots[idx as usize];
        self.free.push(idx);
        value
    }

    fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    fn reset(&mut self) {
        self.slots.clear();
        self.free.clear();
    }
}

/// Packet parking for in-flight calendar payloads.
///
/// Events in the calendar carry 4-byte [`PacketRef`]/[`AckRef`] handles
/// instead of the packets themselves, which keeps calendar entries small
/// (cheap to sift/sort) and reuses slab slots instead of allocating per
/// packet. A packet is parked when its arrival event is scheduled and taken
/// exactly once when the event fires.
#[derive(Clone, Debug, Default)]
pub struct PacketPool {
    data: Slab<DataPacket>,
    acks: Slab<AckPacket>,
    /// Per-hop free lists for data slots (see [`PacketPool::put_data_at`]).
    hop_free: Vec<Vec<u32>>,
}

impl PacketPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares how many hops will use the hop-local slot recycling of
    /// [`PacketPool::put_data_at`] / [`PacketPool::take_data_at`]. Existing
    /// per-hop lists (and their capacity) survive; surplus lists spill their
    /// slots back to the shared free list.
    pub fn set_hop_count(&mut self, hops: usize) {
        while self.hop_free.len() > hops {
            let mut spilled = self.hop_free.pop().expect("len checked");
            self.data.free.append(&mut spilled);
        }
        while self.hop_free.len() < hops {
            self.hop_free.push(Vec::new());
        }
    }

    /// Parks a data packet, returning its handle.
    pub fn put_data(&mut self, pkt: DataPacket) -> PacketRef {
        PacketRef(self.data.alloc(pkt))
    }

    /// Retrieves (and recycles the slot of) a parked data packet.
    pub fn take_data(&mut self, r: PacketRef) -> DataPacket {
        self.data.take(r.0)
    }

    /// Parks a data packet in transit out of hop `hop`, preferring a slot
    /// that hop recently released. Multi-hop routing re-parks every packet
    /// at each hop it crosses; with one shared LIFO free list those slots
    /// interleave across all hops and flows, so consecutive packets of one
    /// hop's pipeline scatter over the slab. A small per-hop free list keeps
    /// each hop cycling through its own compact, cache-resident slot set.
    /// Purely an allocation-policy hint: handles stay opaque and results are
    /// byte-identical to the shared-list path.
    pub fn put_data_at(&mut self, hop: usize, pkt: DataPacket) -> PacketRef {
        if let Some(idx) = self.hop_free.get_mut(hop).and_then(Vec::pop) {
            self.data.slots[idx as usize] = pkt;
            return PacketRef(idx);
        }
        PacketRef(self.data.alloc(pkt))
    }

    /// Retrieves a parked data packet, recycling its slot onto hop `hop`'s
    /// local free list (the packet is about to be enqueued there, and that
    /// hop's next transmission is the likeliest next allocation).
    pub fn take_data_at(&mut self, hop: usize, r: PacketRef) -> DataPacket {
        match self.hop_free.get_mut(hop) {
            Some(local) => {
                debug_assert!(
                    !local.contains(&r.0) && !self.data.free.contains(&r.0),
                    "double take of pool slot {}",
                    r.0
                );
                let value = self.data.slots[r.0 as usize];
                local.push(r.0);
                value
            }
            None => self.data.take(r.0),
        }
    }

    /// Parks an ACK, returning its handle.
    pub fn put_ack(&mut self, ack: AckPacket) -> AckRef {
        AckRef(self.acks.alloc(ack))
    }

    /// Retrieves (and recycles the slot of) a parked ACK.
    pub fn take_ack(&mut self, r: AckRef) -> AckPacket {
        self.acks.take(r.0)
    }

    /// Packets currently parked (data + ACKs).
    pub fn live(&self) -> usize {
        let hop_freed: usize = self.hop_free.iter().map(Vec::len).sum();
        self.data.live() + self.acks.live() - hop_freed
    }

    /// Clears the pool, keeping allocated capacity for reuse across runs.
    pub fn reset(&mut self) {
        self.data.reset();
        self.acks.reset();
        for local in &mut self.hop_free {
            local.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sack_block_helpers() {
        let b = SackBlock { start: 10, end: 15 };
        assert_eq!(b.len(), 5);
        assert!(!b.is_empty());
        assert!(b.contains(10));
        assert!(b.contains(14));
        assert!(!b.contains(15));
        assert!(!b.contains(9));

        let empty = SackBlock { start: 7, end: 7 };
        assert!(empty.is_empty());
        assert_eq!(empty.len(), 0);
        let inverted = SackBlock { start: 9, end: 3 };
        assert!(inverted.is_empty());
        assert_eq!(inverted.len(), 0);
    }

    #[test]
    fn packet_constructors() {
        let p = DataPacket::cca(42, DEFAULT_MSS);
        assert_eq!(p.flow, FlowId::Cca(0));
        assert_eq!(p.flow, FlowId::PRIMARY);
        assert_eq!(p.seq, 42);
        assert_eq!(p.size, DEFAULT_MSS);
        assert!(!p.ect && !p.ce);

        let x = DataPacket::cross_traffic(7, 1200);
        assert_eq!(x.flow, FlowId::CrossTraffic);
        assert_eq!(x.seq, 7);
        assert_eq!(x.size, 1200);
        assert!(!x.ect);
    }

    #[test]
    fn packets_and_skbs_keep_their_size() {
        // Every field is read by an endpoint or the network: one without a
        // reader would grow these.
        assert_eq!(std::mem::size_of::<DataPacket>(), 32);
        assert_eq!(std::mem::size_of::<AckPacket>(), 88);
        assert_eq!(std::mem::size_of::<crate::tcp::Skb>(), 48);
    }

    #[test]
    fn sack_list_caps_at_max_blocks() {
        let mut list = SackList::new();
        assert!(list.is_empty());
        for i in 0..(MAX_SACK_BLOCKS as u64 + 2) {
            list.push(SackBlock {
                start: i * 10,
                end: i * 10 + 1,
            });
        }
        assert_eq!(list.len(), MAX_SACK_BLOCKS);
        assert_eq!(list.as_slice()[0], SackBlock { start: 0, end: 1 });
        assert!(list.contains(&SackBlock { start: 10, end: 11 }));
        assert!(!list.contains(&SackBlock { start: 40, end: 41 }));
        let collected: SackList = (0..2)
            .map(|i| SackBlock {
                start: i,
                end: i + 1,
            })
            .collect();
        assert_eq!(collected.len(), 2);
    }

    #[test]
    fn packet_pool_recycles_slots() {
        let mut pool = PacketPool::new();
        let a = pool.put_data(DataPacket::cca(1, 100));
        let b = pool.put_data(DataPacket::cca(2, 100));
        assert_eq!(pool.live(), 2);
        assert_eq!(pool.take_data(a).seq, 1);
        // The freed slot is reused for the next packet.
        let c = pool.put_data(DataPacket::cca(3, 100));
        assert_eq!(c, a);
        assert_eq!(pool.take_data(b).seq, 2);
        assert_eq!(pool.take_data(c).seq, 3);
        assert_eq!(pool.live(), 0);
        pool.reset();
        assert_eq!(pool.live(), 0);
    }
}

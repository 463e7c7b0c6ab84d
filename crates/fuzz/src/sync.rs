//! Corpus-sync machinery: watermark-sequenced deltas, the per-group
//! delta bus, and deterministic gossip topologies.
//!
//! A sync group never stops at a barrier: a worker *publishes* a
//! [`CorpusDelta`] the moment it has unpublished novelty, peers
//! *drain* inbound deltas at iteration boundaries, and per-origin
//! sequence watermarks make every delta apply exactly once even when
//! gossip echoes it back. Instead of every worker merging every other
//! worker's delta, records travel a fixed topology ([`SyncTopology`])
//! — each worker merges O(1) peers per sync and forwards fresh records
//! verbatim, so a 64-worker fleet pays ring/tree hops instead of 63
//! merges.
//!
//! Determinism: the bus assigns sequence numbers in publish order, a
//! drain scans peers in fixed order, and the group runner steps
//! workers in worker-id order — so a synced group is a pure function
//! of (seeds, topology), reproducible at any host parallelism. The
//! convergence suite (`tests/async_convergence.rs`) pins this, and
//! pins a fleet's final union to that of the same seeds run alone.
//!
//! [`CorpusDelta`]: crate::corpus::CorpusDelta

use std::sync::Arc;

use crate::corpus::CorpusDelta;

/// The argument type of the no-op `CampaignConfig::with_sync_mode`.
/// Watermark gossip is the only sync protocol; the type stays only
/// because perfbench names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncMode {
    /// The only value.
    Async,
}

/// The gossip graph sync records travel. Both are deterministic
/// functions of (worker id, group size) — no registration, no
/// membership protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncTopology {
    /// Each worker reads its predecessor `(w + n - 1) % n`: one peer
    /// merge per sync, records take up to `n - 1` hops to circle.
    Ring,
    /// Binary tree rooted at worker 0: worker `w` reads its parent
    /// `(w - 1) / 2` and children `2w + 1`, `2w + 2`. At most three
    /// peer merges per sync, records cross in O(log n) hops — the
    /// default, because hop latency bounds how stale a 64-worker
    /// fleet's knowledge can get.
    #[default]
    Tree,
}

impl SyncTopology {
    /// Parses a CLI `--sync-topology` value.
    pub fn parse(s: &str) -> Option<SyncTopology> {
        match s {
            "ring" => Some(SyncTopology::Ring),
            "tree" => Some(SyncTopology::Tree),
            _ => None,
        }
    }

    /// The fixed peer set worker `worker` reads from, in drain order
    /// (ascending worker id), for a group of `n` workers.
    pub fn peers(self, worker: u32, n: u32) -> Vec<u32> {
        if n < 2 {
            return Vec::new();
        }
        match self {
            SyncTopology::Ring => vec![(worker + n - 1) % n],
            SyncTopology::Tree => {
                let mut peers = Vec::with_capacity(3);
                if worker > 0 {
                    peers.push((worker - 1) / 2);
                }
                for child in [2 * worker + 1, 2 * worker + 2] {
                    if child < n {
                        peers.push(child);
                    }
                }
                peers
            }
        }
    }
}

impl std::fmt::Display for SyncTopology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SyncTopology::Ring => "ring",
            SyncTopology::Tree => "tree",
        })
    }
}

/// Per-worker sync-cost counters — diagnostics, excluded from result
/// equality the same way engine stats are.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SyncStats {
    /// Deltas this worker published.
    pub deltas_published: u64,
    /// Foreign deltas merged into this worker's corpus.
    pub deltas_applied: u64,
    /// Virgin-map segments swept across all delta/merge scans.
    pub segments_merged: u64,
    /// Virgin-map words visited by those sweeps — the cost the
    /// sharded scans save versus whole-map ones.
    pub words_scanned: u64,
    /// Foreign entries adopted into the local queue.
    pub adoptions: u64,
}

impl SyncStats {
    /// Folds another worker's counters into a fleet total.
    pub fn absorb(&mut self, other: &SyncStats) {
        self.deltas_published += other.deltas_published;
        self.deltas_applied += other.deltas_applied;
        self.segments_merged += other.segments_merged;
        self.words_scanned += other.words_scanned;
        self.adoptions += other.adoptions;
    }
}

/// A published delta stamped with its origin's sequence number — the
/// watermark unit. Relays forward the record verbatim (`Arc`-shared,
/// never copied), so `(origin, seq)` identifies it fleet-wide.
#[derive(Debug, Clone)]
pub struct SeqDelta {
    /// The discovering worker (== `delta.worker`).
    pub origin: u32,
    /// Position in the origin's publish stream, from 0.
    pub seq: u64,
    /// The payload.
    pub delta: Arc<CorpusDelta>,
}

/// The group's delta mailboxes: one append-only outbox per worker,
/// holding the records (own publications + relays) that worker has
/// made available to its topology peers.
///
/// Single-threaded by design: the group runner steps workers in
/// worker-id order (the group is one scheduling unit), so the bus
/// needs no lock and stays deterministic.
#[derive(Debug)]
pub struct DeltaBus {
    outboxes: Vec<Vec<Arc<SeqDelta>>>,
    next_seq: Vec<u64>,
}

impl DeltaBus {
    /// An empty bus for `n` workers.
    pub fn new(n: usize) -> Self {
        DeltaBus {
            outboxes: vec![Vec::new(); n],
            next_seq: vec![0; n],
        }
    }

    /// Stamps `delta` with its origin's next sequence number and
    /// appends it to the origin's outbox.
    pub fn publish_own(&mut self, delta: CorpusDelta) -> Arc<SeqDelta> {
        let origin = delta.worker;
        let seq = self.next_seq[origin as usize];
        self.next_seq[origin as usize] += 1;
        let rec = Arc::new(SeqDelta {
            origin,
            seq,
            delta: Arc::new(delta),
        });
        self.outboxes[origin as usize].push(rec.clone());
        rec
    }

    /// Appends a foreign record to `worker`'s outbox unmodified — the
    /// gossip forward. `(origin, seq)` survives relaying, which is
    /// what lets downstream watermarks deduplicate echoes.
    pub fn relay(&mut self, worker: u32, rec: Arc<SeqDelta>) {
        self.outboxes[worker as usize].push(rec);
    }

    /// The records `worker` has made available so far.
    pub fn outbox(&self, worker: u32) -> &[Arc<SeqDelta>] {
        &self.outboxes[worker as usize]
    }
}

/// One worker's view of the gossip: its fixed peer set, a read cursor
/// per peer outbox, and the per-origin applied watermark.
#[derive(Debug)]
pub struct GossipNode {
    peers: Vec<u32>,
    cursors: Vec<usize>,
    /// Next sequence number expected from each origin. Everything
    /// below is applied; gossip delivers each origin's records in
    /// order along every path (relays preserve outbox order), so one
    /// counter per origin is a complete dedup record.
    applied: Vec<u64>,
}

impl GossipNode {
    /// The node for `worker` in a group of `n` under `topology`.
    pub fn new(worker: u32, n: u32, topology: SyncTopology) -> Self {
        let peers = topology.peers(worker, n);
        GossipNode {
            cursors: vec![0; peers.len()],
            applied: vec![0; n as usize],
            peers,
        }
    }

    /// This node's read peers, in drain order.
    pub fn peers(&self) -> &[u32] {
        &self.peers
    }

    /// Watermarks the node's own publication so the record terminates
    /// when the topology echoes it back.
    pub fn note_published(&mut self, rec: &SeqDelta) {
        self.applied[rec.origin as usize] = rec.seq + 1;
    }

    /// Collects every fresh record visible from this node's peers, in
    /// (peer, outbox) order, advancing cursors and watermarks. A
    /// record below an origin's watermark is an echo and is dropped;
    /// everything returned is new to this node, exactly once. The
    /// caller applies the deltas and [`relay`]s the records onward.
    ///
    /// [`relay`]: DeltaBus::relay
    pub fn drain(&mut self, bus: &DeltaBus) -> Vec<Arc<SeqDelta>> {
        let mut fresh = Vec::new();
        for (slot, &peer) in self.peers.iter().enumerate() {
            let outbox = bus.outbox(peer);
            for rec in &outbox[self.cursors[slot].min(outbox.len())..] {
                let expected = &mut self.applied[rec.origin as usize];
                if rec.seq >= *expected {
                    debug_assert_eq!(rec.seq, *expected, "gossip delivered out of order");
                    *expected = rec.seq + 1;
                    fresh.push(rec.clone());
                }
            }
            self.cursors[slot] = outbox.len();
        }
        fresh
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delta(worker: u32) -> CorpusDelta {
        CorpusDelta {
            worker,
            entries: Vec::new(),
            cleared: vec![(worker.min(255), 1)],
        }
    }

    /// Steps one full gossip round: every worker drains, applies
    /// nothing (payloads are opaque here), and relays fresh records.
    fn round(nodes: &mut [GossipNode], bus: &mut DeltaBus, seen: &mut [Vec<(u32, u64)>]) -> usize {
        let mut moved = 0;
        for w in 0..nodes.len() {
            for rec in nodes[w].drain(bus) {
                seen[w].push((rec.origin, rec.seq));
                bus.relay(w as u32, rec);
                moved += 1;
            }
        }
        moved
    }

    #[test]
    fn every_record_reaches_every_worker_exactly_once() {
        for topology in [SyncTopology::Ring, SyncTopology::Tree] {
            for n in [2u32, 3, 8, 64] {
                let mut bus = DeltaBus::new(n as usize);
                let mut nodes: Vec<GossipNode> =
                    (0..n).map(|w| GossipNode::new(w, n, topology)).collect();
                let mut seen = vec![Vec::new(); n as usize];
                // Two publications per worker, interleaved with rounds.
                for burst in 0..2u64 {
                    for w in 0..n {
                        let rec = bus.publish_own(delta(w));
                        assert_eq!(rec.seq, burst);
                        nodes[w as usize].note_published(&rec);
                    }
                    round(&mut nodes, &mut bus, &mut seen);
                }
                // Drain to quiescence.
                while round(&mut nodes, &mut bus, &mut seen) > 0 {}
                for (w, log) in seen.iter().enumerate() {
                    let mut expect: Vec<(u32, u64)> = (0..n)
                        .filter(|&o| o != w as u32)
                        .flat_map(|o| [(o, 0u64), (o, 1u64)])
                        .collect();
                    let mut got = log.clone();
                    got.sort_unstable();
                    expect.sort_unstable();
                    assert_eq!(
                        got, expect,
                        "{topology} n={n} worker {w}: exactly-once violated"
                    );
                }
            }
        }
    }

    #[test]
    fn ring_echo_terminates_at_the_origin() {
        let n = 4u32;
        let mut bus = DeltaBus::new(n as usize);
        let mut nodes: Vec<GossipNode> = (0..n)
            .map(|w| GossipNode::new(w, n, SyncTopology::Ring))
            .collect();
        let rec = bus.publish_own(delta(0));
        nodes[0].note_published(&rec);
        let mut seen = vec![Vec::new(); n as usize];
        let mut rounds = 0;
        while round(&mut nodes, &mut bus, &mut seen) > 0 {
            rounds += 1;
            assert!(rounds <= n, "record must not circle forever");
        }
        assert!(
            seen[0].is_empty(),
            "the origin never re-applies its own record"
        );
    }

    #[test]
    fn tree_peers_are_symmetric_and_connected() {
        for n in [2u32, 5, 16, 64] {
            for w in 0..n {
                for &p in &SyncTopology::Tree.peers(w, n) {
                    assert!(p < n);
                    assert!(
                        SyncTopology::Tree.peers(p, n).contains(&w),
                        "tree edges must be bidirectional: {w} <-> {p} (n={n})"
                    );
                }
            }
        }
    }

    #[test]
    fn parse_round_trips_display() {
        for topo in [SyncTopology::Ring, SyncTopology::Tree] {
            assert_eq!(SyncTopology::parse(&topo.to_string()), Some(topo));
        }
        assert_eq!(SyncTopology::parse("mesh"), None);
    }
}

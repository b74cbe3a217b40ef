//! Flow sharding for multi-core deployments of the Iustitia pipeline.
//!
//! The paper targets "rigid time and space requirements in high speed
//! routers" (§1.2). A single [`Iustitia`](crate::pipeline::Iustitia)
//! engine is single-threaded; on a multi-core middlebox the standard
//! scaling pattern is *flow sharding*: hash each packet's flow ID to one
//! of `N` workers, each owning an independent pipeline (CDB + buffers).
//! Because all per-flow state is partitioned by the same hash, no state
//! is shared between workers and no locks sit on the packet path. The
//! `iustitia-serve` shard workers are that deployment.
//!
//! # Examples
//!
//! ```
//! use iustitia::cdb::FlowId;
//! use iustitia::concurrent::shard_index;
//! use iustitia_netsim::FiveTuple;
//! use std::net::Ipv4Addr;
//!
//! let tuple = FiveTuple::tcp(Ipv4Addr::new(10, 0, 0, 1), 4000, Ipv4Addr::new(10, 0, 0, 2), 443);
//! let shard = shard_index(&FlowId::of_tuple(&tuple), 4);
//! assert!(shard < 4);
//! ```

use crate::cdb::FlowId;

/// The shard a flow lands on: the first bytes of its 160-bit flow hash,
/// reduced mod `shards` — the same uniform partitioning an RSS-style
/// NIC queue would apply. Every sharded deployment routes through this
/// function, so they all agree on placement.
///
/// # Panics
///
/// Panics if `shards == 0`.
pub fn shard_index(id: &FlowId, shards: usize) -> usize {
    // lint: allow(L008) — documented contract; Server::start rejects zero shards before any packet is routed
    assert!(shards > 0, "need at least one shard");
    let [a, b, c, d, e, f, g, h, ..] = id.0;
    (u64::from_be_bytes([a, b, c, d, e, f, g, h]) % shards as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_assignment_is_stable_and_in_range() {
        for b in 0..40u8 {
            let id = FlowId([b; 20]);
            let s1 = shard_index(&id, 7);
            let s2 = shard_index(&id, 7);
            assert_eq!(s1, s2);
            assert!(s1 < 7);
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        shard_index(&FlowId([0; 20]), 0);
    }
}

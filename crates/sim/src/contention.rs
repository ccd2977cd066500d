//! The shared-resource contention model.
//!
//! This module computes the *effective* resource rates a container
//! instance observes, given the node's capacity, active anomaly
//! contenders, explicit partitions, and the activity of co-located
//! instances. It encodes the semantics of the actuators FIRM drives
//! (§3.5):
//!
//! * **Reservations** (Intel CAT for LLC, Intel MBA for memory bandwidth):
//!   carve capacity out of the shared pool; a reserved instance is
//!   *protected* from contenders up to its reservation, and capped at it.
//! * **Throttles** (cgroups `cpu.cfs_quota_us`, `blkio`, `tc` HTB for
//!   CPU/disk/network): cap an instance's use but do **not** protect it —
//!   a throttled instance still competes in the best-effort pool.
//!
//! Anomaly contenders take their share off the top of the unreserved pool
//! (streaming stressors are deliberately aggressive; this mirrors how
//! iBench/pmbw behave), and the remaining best-effort capacity is shared
//! in proportion to instance activity (busy workers). Scale-up therefore
//! increases an instance's share of contended bandwidth — the mechanism
//! behind Fig. 1's mitigation — while a reservation protects it outright.
//!
//! One formula (`PeerSums::rate`) computes every rate from a small
//! `PeerSums` value. The engine fills it from per-node aggregates it
//! keeps up to date as instances change (the integer weight total and
//! the reservation holders), so a compute chunk costs O(reservation
//! holders) rather than O(co-located peers). `PeerSums::walk` fills
//! the same value from a full walk of [`node_peers`]; it is the
//! reference the aggregates are tested against, and the one
//! [`effective_rate`] and [`effective_rates`] use.

use crate::instance::{Instance, InstanceState};
use crate::node::Node;
use crate::resources::ResourceKind;

/// Fraction of the pool a saturating stressor cannot take (hardware always
/// retains some victim throughput).
const CONTENDER_FLOOR: f64 = 0.05;
/// Minimum effective rate, as a fraction of capacity, to keep service
/// times finite under total saturation.
const RATE_FLOOR_FRAC: f64 = 0.01;
/// Reservations may cover at most this fraction of a node's capacity.
pub const MAX_RESERVABLE_FRAC: f64 = 0.9;

/// Effective resource rates for one instance at one moment.
#[derive(Debug, Clone, Copy)]
pub struct EffectiveRates {
    /// Per-worker CPU speed in cores (≤ 1.0 × node speed).
    pub cpu_per_worker: f64,
    /// Memory bandwidth, MB/s.
    pub mem_mbps: f64,
    /// LLC share, MB.
    pub llc_mb: f64,
    /// Disk bandwidth, MB/s.
    pub io_mbps: f64,
    /// Network bandwidth, MB/s.
    pub net_mbps: f64,
    /// DRAM-traffic inflation factor from LLC shortfall (≥ 1).
    pub mem_inflation: f64,
}

/// Whether a resource's partition acts as a reservation (protects) or a
/// throttle (caps only).
pub const fn is_reservation(kind: ResourceKind) -> bool {
    matches!(kind, ResourceKind::MemBw | ResourceKind::Llc)
}

/// The resource kinds [`is_reservation`] accepts.
const RESERVATION_KINDS: [ResourceKind; 2] = [ResourceKind::MemBw, ResourceKind::Llc];

/// Activity weight of an instance in best-effort sharing: its busy
/// workers, counting the instance as active while it holds queued work.
/// An integer, so a node's weight total is exact in any summation order.
pub(crate) fn weight(inst: &Instance) -> u64 {
    if inst.busy_workers == 0 && !inst.queue.is_empty() {
        1
    } else {
        u64::from(inst.busy_workers)
    }
}

/// Whether `inst` holds a reservation (MemBw or LLC) — the only peers
/// whose individual state, beyond their weight, enters the rates.
pub(crate) fn holds_reservation(inst: &Instance) -> bool {
    RESERVATION_KINDS
        .iter()
        .any(|&kind| inst.partition(kind).is_some())
}

/// The live (non-removed) instances placed on `node`, in placement
/// order — the peer set the contention model shares capacity over.
pub fn node_peers<'a>(
    node: &'a Node,
    instances: &'a [Instance],
) -> impl Iterator<Item = &'a Instance> + Clone {
    node.instances
        .iter()
        .map(move |id| &instances[id.index()])
        .filter(|i| i.state != InstanceState::Removed)
}

/// Everything the rate formula needs to know about a node's peers: the
/// total activity weight, and per reservation kind the reservation sum,
/// the part of it carved out of the best-effort pool, and the weight of
/// the peers holding it.
///
/// Only reservation holders contribute beyond their weight, so the
/// engine builds this from its incrementally kept per-node weight total
/// and holder list ([`PeerSums::new`]) in O(holders) per compute chunk;
/// [`PeerSums::walk`] builds the same value from a full peer walk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PeerSums {
    weight: u64,
    reserved: [f64; 5],
    carve: [f64; 5],
    held_weight: [u64; 5],
}

impl PeerSums {
    /// Sums over a node whose peers weigh `weight_sum` in total and whose
    /// reservation holders are `holders`, in placement order. Holders
    /// without a reservation are skipped; the floating-point sums fold
    /// in the order given.
    pub(crate) fn new<'a>(
        node: &Node,
        weight_sum: u64,
        holders: impl IntoIterator<Item = &'a Instance>,
    ) -> Self {
        let mut sums = PeerSums {
            weight: weight_sum,
            reserved: [0.0; 5],
            carve: [0.0; 5],
            held_weight: [0; 5],
        };
        let total = (weight_sum as f64).max(1.0);
        for inst in holders {
            let w = weight(inst);
            for kind in RESERVATION_KINDS {
                if let Some(p) = inst.partition(kind) {
                    let k = kind.index();
                    // Reservations (CAT/MBA) are *work-conserving*
                    // guarantees: the part a holder cannot plausibly
                    // use (bounded by its activity share) returns to
                    // the best-effort pool, so idle reservations do not
                    // starve co-located containers.
                    let activity_share = w as f64 / total * node.capacity(kind) * 1.5;
                    sums.reserved[k] += p;
                    sums.carve[k] += p.min(activity_share);
                    sums.held_weight[k] += w;
                }
            }
        }
        sums
    }

    /// The reference construction: one walk over every peer placed on
    /// the node (the target included), in placement order.
    pub(crate) fn walk<'a>(node: &Node, peers: impl Iterator<Item = &'a Instance> + Clone) -> Self {
        let total = peers.clone().map(weight).sum();
        Self::new(node, total, peers.filter(|i| holds_reservation(i)))
    }

    /// Effective rate of `target` on resource `kind`. Never below
    /// `RATE_FLOOR_FRAC` of capacity for shared rates, so service times
    /// stay finite under full saturation.
    pub(crate) fn rate(&self, node: &Node, target: &Instance, kind: ResourceKind) -> f64 {
        let k = kind.index();
        let capacity = node.capacity(kind);
        let floor = capacity * RATE_FLOOR_FRAC;
        let reserve_cap = capacity * MAX_RESERVABLE_FRAC;
        let rescale = if self.reserved[k] > reserve_cap {
            reserve_cap / self.reserved[k]
        } else {
            1.0
        };
        // An explicit partition may be far below the contention floor;
        // only a tiny absolute epsilon keeps service times finite.
        let epsilon = capacity * 1e-4;
        if is_reservation(kind) {
            if let Some(p) = target.partition(kind) {
                return (p * rescale).max(epsilon);
            }
        }

        // Best-effort pool: capacity minus the *used* part of
        // reservations minus the anomaly's off-the-top consumption.
        let pool = (capacity - self.carve[k].min(reserve_cap)).max(0.0);
        let anomaly = node.anomaly_fraction(kind) * pool * (1.0 - CONTENDER_FLOOR);
        let free = (pool - anomaly).max(floor);

        let my_weight = weight(target).max(1) as f64;
        let total_weight = ((self.weight - self.held_weight[k]) as f64).max(my_weight);
        // The contention floor applies to the *shared* rate; a throttle
        // below it still sticks (an operator-chosen quota must be
        // honoured).
        let fair_share = (free * my_weight / total_weight).max(floor);

        // A throttle caps but does not protect.
        match target.partition(kind) {
            Some(p) if !is_reservation(kind) => fair_share.min(p.max(epsilon)),
            _ => fair_share,
        }
    }

    /// Computes all effective rates for `target` in one pass.
    pub(crate) fn rates(
        &self,
        node: &Node,
        target: &Instance,
        llc_working_set_mb: f64,
        llc_sensitivity: f64,
    ) -> EffectiveRates {
        let cpu_total = self.rate(node, target, ResourceKind::Cpu);
        let busy = target.busy_workers.max(1) as f64;
        let slowdown = cpu_stress_slowdown(node.anomaly_fraction(ResourceKind::Cpu))
            * instance_stress_factor(target, ResourceKind::Cpu);
        let cpu_per_worker = (cpu_total / busy).min(1.0) * node.spec.speed * slowdown;

        let stressed = |kind: ResourceKind| {
            self.rate(node, target, kind) * instance_stress_factor(target, kind)
        };
        let mem_mbps = stressed(ResourceKind::MemBw);
        let llc_mb = stressed(ResourceKind::Llc);
        let io_mbps = stressed(ResourceKind::IoBw);
        let net_mbps = stressed(ResourceKind::NetBw);
        let mem_inflation = llc_inflation(llc_mb, llc_working_set_mb, llc_sensitivity);

        EffectiveRates {
            cpu_per_worker: cpu_per_worker.max(0.02),
            mem_mbps,
            llc_mb,
            io_mbps,
            net_mbps,
            mem_inflation,
        }
    }
}

/// Effective rate of `target` on resource `kind`, by the reference
/// peer walk. `peers` must contain every instance placed on the node,
/// including the target itself.
pub fn effective_rate(
    node: &Node,
    peers: &[&Instance],
    target: &Instance,
    kind: ResourceKind,
) -> f64 {
    PeerSums::walk(node, peers.iter().copied()).rate(node, target, kind)
}

/// All effective rates of `target`, by the reference peer walk (see
/// [`effective_rate`]).
pub fn effective_rates(
    node: &Node,
    peers: &[&Instance],
    target: &Instance,
    llc_working_set_mb: f64,
    llc_sensitivity: f64,
) -> EffectiveRates {
    PeerSums::walk(node, peers.iter().copied()).rates(
        node,
        target,
        llc_working_set_mb,
        llc_sensitivity,
    )
}

/// DRAM-traffic inflation from an LLC share smaller than the working set.
///
/// `sensitivity` is the demand profile's `llc_sensitivity`; a share equal
/// to the working set gives factor 1.0, zero share gives
/// `1 + sensitivity`.
pub fn llc_inflation(llc_share_mb: f64, working_set_mb: f64, sensitivity: f64) -> f64 {
    if working_set_mb <= 0.0 {
        return 1.0;
    }
    let shortfall = (1.0 - llc_share_mb / working_set_mb).clamp(0.0, 1.0);
    1.0 + sensitivity.max(0.0) * shortfall
}

/// Per-core slowdown under CPU-stressor contention: a saturating
/// stressor timeslices against victim threads, so even a single-threaded
/// victim with quota headroom slows down (factor 3× at full intensity).
pub fn cpu_stress_slowdown(stress_fraction: f64) -> f64 {
    1.0 / (1.0 + 2.0 * stress_fraction.clamp(0.0, 1.0))
}

/// Per-resource slowdown gain of an in-container stressor at full
/// intensity: CPU timeslicing halves-to-thirds the victim; saturating
/// memory/LLC streams cost memory-bound code an order of magnitude
/// (iBench-style); disk/network saturation sits in between.
const STRESS_GAIN: [f64; 5] = [2.0, 9.0, 9.0, 6.0, 6.0];

/// Direct in-container stress slowdown for one resource: a container-
/// level stressor (the paper's injector runs inside the container)
/// competes head-to-head with the service on that resource.
fn instance_stress_factor(target: &Instance, kind: ResourceKind) -> f64 {
    1.0 / (1.0 + STRESS_GAIN[kind.index()] * target.stress[kind.index()].max(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{AnomalyId, NodeId, ServiceId};
    use crate::instance::InstanceState;
    use crate::node::ActiveContender;
    use crate::spec::NodeSpec;
    use crate::time::SimTime;

    fn node() -> Node {
        Node::new(NodeSpec::x86_default())
    }

    fn inst(cpu: f64, busy: u32) -> Instance {
        let mut i = Instance::new(
            ServiceId(0),
            NodeId(0),
            cpu,
            64,
            128,
            InstanceState::Running,
            SimTime::ZERO,
        );
        i.busy_workers = busy;
        i
    }

    /// The fused five-kind pass must reproduce five independent
    /// per-kind computations bit for bit — partitions, reservations,
    /// contenders and stress included.
    #[test]
    fn fused_rates_match_per_kind_rates_bit_for_bit() {
        let mut n = node();
        n.contenders.push(ActiveContender {
            anomaly: AnomalyId(0),
            resource: ResourceKind::MemBw,
            intensity: 0.6,
        });
        let mut a = inst(2.0, 3);
        a.set_partition(ResourceKind::MemBw, Some(9_000.0));
        a.set_partition(ResourceKind::Llc, Some(12.0));
        a.stress[ResourceKind::Cpu.index()] = 0.4;
        let mut b = inst(4.0, 1);
        b.set_partition(ResourceKind::IoBw, Some(300.0));
        let c = inst(1.0, 0);
        let peers = [&a, &b, &c];
        for target in peers {
            let fused = effective_rates(&n, &peers, target, 2.0, 0.7);
            let busy = target.busy_workers.max(1) as f64;
            let slowdown = cpu_stress_slowdown(n.anomaly_fraction(ResourceKind::Cpu))
                * instance_stress_factor(target, ResourceKind::Cpu);
            let cpu = (effective_rate(&n, &peers, target, ResourceKind::Cpu) / busy).min(1.0)
                * n.spec.speed
                * slowdown;
            assert_eq!(fused.cpu_per_worker.to_bits(), cpu.max(0.02).to_bits());
            let per_kind = |kind: ResourceKind| {
                effective_rate(&n, &peers, target, kind) * instance_stress_factor(target, kind)
            };
            assert_eq!(
                fused.mem_mbps.to_bits(),
                per_kind(ResourceKind::MemBw).to_bits()
            );
            assert_eq!(
                fused.llc_mb.to_bits(),
                per_kind(ResourceKind::Llc).to_bits()
            );
            assert_eq!(
                fused.io_mbps.to_bits(),
                per_kind(ResourceKind::IoBw).to_bits()
            );
            assert_eq!(
                fused.net_mbps.to_bits(),
                per_kind(ResourceKind::NetBw).to_bits()
            );
        }
    }

    #[test]
    fn sole_instance_gets_whole_pool() {
        let n = node();
        let i = inst(4.0, 2);
        let rate = effective_rate(&n, &[&i], &i, ResourceKind::MemBw);
        assert!((rate - 25_600.0).abs() < 1.0, "rate was {rate}");
    }

    #[test]
    fn cpu_throttle_caps() {
        let n = node();
        let i = inst(4.0, 2);
        let rate = effective_rate(&n, &[&i], &i, ResourceKind::Cpu);
        assert!((rate - 4.0).abs() < 1e-9, "rate was {rate}");
    }

    #[test]
    fn anomaly_shrinks_best_effort_share() {
        let mut n = node();
        let i = inst(4.0, 2);
        let before = effective_rate(&n, &[&i], &i, ResourceKind::MemBw);
        n.contenders.push(ActiveContender {
            anomaly: AnomalyId(0),
            resource: ResourceKind::MemBw,
            intensity: 0.8,
        });
        let after = effective_rate(&n, &[&i], &i, ResourceKind::MemBw);
        assert!(after < before * 0.35, "before={before} after={after}");
        assert!(after > 0.0);
    }

    #[test]
    fn reservation_protects_from_anomaly() {
        let mut n = node();
        let mut i = inst(4.0, 2);
        i.set_partition(ResourceKind::MemBw, Some(8_000.0));
        n.contenders.push(ActiveContender {
            anomaly: AnomalyId(0),
            resource: ResourceKind::MemBw,
            intensity: 1.0,
        });
        let rate = effective_rate(&n, &[&i], &i, ResourceKind::MemBw);
        assert!((rate - 8_000.0).abs() < 1.0, "rate was {rate}");
    }

    #[test]
    fn reservation_also_caps() {
        let n = node();
        let mut i = inst(4.0, 2);
        i.set_partition(ResourceKind::MemBw, Some(1_000.0));
        let rate = effective_rate(&n, &[&i], &i, ResourceKind::MemBw);
        assert!((rate - 1_000.0).abs() < 1.0, "rate was {rate}");
    }

    #[test]
    fn oversubscribed_reservations_rescale() {
        let n = node();
        let mut a = inst(4.0, 1);
        let mut b = inst(4.0, 1);
        // 2 × 20,000 MB/s of reservations on a 25,600 MB/s node.
        a.set_partition(ResourceKind::MemBw, Some(20_000.0));
        b.set_partition(ResourceKind::MemBw, Some(20_000.0));
        let rate = effective_rate(&n, &[&a, &b], &a, ResourceKind::MemBw);
        // 90% of capacity split pro rata: 0.9 × 25,600 / 2.
        assert!((rate - 11_520.0).abs() < 1.0, "rate was {rate}");
    }

    #[test]
    fn best_effort_shares_by_busy_workers() {
        let n = node();
        let a = inst(8.0, 6);
        let b = inst(8.0, 2);
        let ra = effective_rate(&n, &[&a, &b], &a, ResourceKind::MemBw);
        let rb = effective_rate(&n, &[&a, &b], &b, ResourceKind::MemBw);
        assert!((ra / rb - 3.0).abs() < 0.01, "ratio was {}", ra / rb);
    }

    #[test]
    fn scale_up_increases_bandwidth_share() {
        // The Fig. 1 mechanism: more busy workers → bigger share of the
        // contended memory bandwidth.
        let mut n = node();
        n.contenders.push(ActiveContender {
            anomaly: AnomalyId(0),
            resource: ResourceKind::MemBw,
            intensity: 0.6,
        });
        let small = inst(2.0, 2);
        let other = inst(8.0, 8);
        let before = effective_rate(&n, &[&small, &other], &small, ResourceKind::MemBw);
        let grown = inst(8.0, 8);
        let after = effective_rate(&n, &[&grown, &other], &grown, ResourceKind::MemBw);
        assert!(after > before * 2.0, "before={before} after={after}");
    }

    #[test]
    fn rate_never_zero_under_full_saturation() {
        let mut n = node();
        n.contenders.push(ActiveContender {
            anomaly: AnomalyId(0),
            resource: ResourceKind::IoBw,
            intensity: 1.0,
        });
        let i = inst(1.0, 1);
        let rate = effective_rate(&n, &[&i], &i, ResourceKind::IoBw);
        assert!(rate >= 2_000.0 * RATE_FLOOR_FRAC * 0.99);
    }

    #[test]
    fn idle_queued_instance_has_weight() {
        let n = node();
        let mut a = inst(4.0, 0);
        a.queue.push_back(0);
        let b = inst(4.0, 4);
        let ra = effective_rate(&n, &[&a, &b], &a, ResourceKind::MemBw);
        // Weight 1 vs 4 → a gets 1/5 of the pool.
        assert!((ra / 25_600.0 - 0.2).abs() < 0.01);
    }

    #[test]
    fn llc_inflation_bounds() {
        assert_eq!(llc_inflation(4.0, 4.0, 0.8), 1.0);
        assert!((llc_inflation(0.0, 4.0, 0.8) - 1.8).abs() < 1e-12);
        assert!((llc_inflation(2.0, 4.0, 0.8) - 1.4).abs() < 1e-12);
        assert_eq!(llc_inflation(8.0, 4.0, 0.8), 1.0);
        assert_eq!(llc_inflation(0.0, 0.0, 0.8), 1.0);
    }

    #[test]
    fn cpu_stress_slows_single_threaded_victims() {
        // A single worker with quota headroom still slows under a CPU
        // stressor (timeslice contention), even though its fair share
        // exceeds one core.
        let mut n = node();
        let i = inst(2.0, 1);
        let before = effective_rates(&n, &[&i], &i, 1.0, 0.2).cpu_per_worker;
        n.contenders.push(ActiveContender {
            anomaly: AnomalyId(0),
            resource: ResourceKind::Cpu,
            intensity: 1.0,
        });
        let after = effective_rates(&n, &[&i], &i, 1.0, 0.2).cpu_per_worker;
        assert!((before - 1.0).abs() < 1e-9, "before {before}");
        assert!((after - 1.0 / 3.0).abs() < 1e-9, "after {after}");
        assert_eq!(cpu_stress_slowdown(0.0), 1.0);
        assert_eq!(cpu_stress_slowdown(0.5), 0.5);
    }

    #[test]
    fn effective_rates_per_worker_speed() {
        let n = node();
        let mut i = inst(2.0, 4);
        i.busy_workers = 4;
        let rates = effective_rates(&n, &[&i], &i, 1.0, 0.5);
        // Quota 2 cores over 4 busy workers → 0.5 cores per worker.
        assert!((rates.cpu_per_worker - 0.5).abs() < 1e-9);
        assert!(rates.mem_inflation >= 1.0);
    }
}

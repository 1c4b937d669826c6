//! The consistent-hash ring.
//!
//! Swift "exploits the synergy between a flat object ID space and consistent
//! hashing via a hash-based data structure called *ring*", guaranteeing load
//! balancing and horizontal scaling. This module implements a weighted,
//! zone-aware partition ring with the same shape as Swift's:
//!
//! * The hash space is divided into `2^part_power` **partitions**.
//! * Each partition is assigned `replicas` **devices**, preferring distinct
//!   zones, then distinct nodes, then distinct devices.
//! * Device weights steer proportional partition counts.
//! * [`Ring::rebalance`] reassigns as few partitions as possible when devices
//!   are added or removed (tested below).

use scoop_common::hash::hash64;
use scoop_common::{Result, ScoopError};
use std::collections::HashMap;

/// Identifier of a storage device within the ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DeviceId(pub u32);

/// A physical device participating in the ring.
#[derive(Debug, Clone, PartialEq)]
pub struct Device {
    /// Stable identifier.
    pub id: DeviceId,
    /// Object-server node hosting the device.
    pub node: u32,
    /// Failure-isolation zone (rack / PDU in Swift deployments).
    pub zone: u32,
    /// Relative capacity weight (> 0).
    pub weight: f64,
}

/// Builder for a [`Ring`].
///
/// ```
/// use scoop_objectstore::RingBuilder;
/// let mut builder = RingBuilder::new(8, 3);
/// for node in 0..4 {
///     builder.add_device(node, node % 2, 1.0);
/// }
/// let ring = builder.build().unwrap();
/// let replicas = ring.lookup("/AUTH_gp/meters/jan.csv");
/// assert_eq!(replicas.len(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct RingBuilder {
    part_power: u32,
    replicas: usize,
    devices: Vec<Device>,
}

impl RingBuilder {
    /// Start a builder. `part_power` bounds the partition count at
    /// `2^part_power`; Swift deployments typically use 14–22, tests use less.
    pub fn new(part_power: u32, replicas: usize) -> Self {
        assert!(part_power <= 24, "part_power > 24 would allocate too much");
        assert!(replicas >= 1, "at least one replica required");
        RingBuilder { part_power, replicas, devices: Vec::new() }
    }

    /// Add a device.
    pub fn add_device(&mut self, node: u32, zone: u32, weight: f64) -> DeviceId {
        let id = DeviceId(self.devices.len() as u32);
        self.devices.push(Device { id, node, zone, weight });
        id
    }

    /// Build and balance the ring.
    pub fn build(self) -> Result<Ring> {
        if self.devices.is_empty() {
            return Err(ScoopError::InvalidRequest("ring has no devices".into()));
        }
        if self.devices.iter().any(|d| d.weight <= 0.0) {
            return Err(ScoopError::InvalidRequest(
                "device weights must be positive".into(),
            ));
        }
        let mut ring = Ring {
            part_power: self.part_power,
            replicas: self.replicas.min(self.devices.len()),
            devices: self.devices,
            part2dev: Vec::new(),
        };
        ring.assign_all();
        Ok(ring)
    }
}

/// The built ring: partition → replica devices.
#[derive(Debug, Clone)]
pub struct Ring {
    part_power: u32,
    replicas: usize,
    devices: Vec<Device>,
    /// `part2dev[partition]` lists `replicas` distinct devices.
    part2dev: Vec<Vec<DeviceId>>,
}

impl Ring {
    /// Number of partitions.
    pub fn partitions(&self) -> usize {
        1usize << self.part_power
    }

    /// Replica count.
    pub fn replicas(&self) -> usize {
        self.replicas
    }

    /// All devices.
    pub fn devices(&self) -> &[Device] {
        &self.devices
    }

    /// Partition for a ring key (e.g. [`crate::ObjectPath::ring_key`]).
    pub fn partition_of(&self, key: &str) -> usize {
        (hash64(key.as_bytes()) >> (64 - self.part_power)) as usize
    }

    /// Devices responsible for a key, primary first. Empty only when the
    /// assignment table has no entry for the key's partition (a transient
    /// rebalance window) — callers treat that as "no replicas reachable",
    /// never a panic.
    pub fn lookup(&self, key: &str) -> &[DeviceId] {
        self.devices_of_partition(self.partition_of(key))
    }

    /// Devices assigned to a raw partition index; empty for out-of-range
    /// partitions rather than panicking.
    pub fn devices_of_partition(&self, part: usize) -> &[DeviceId] {
        self.part2dev.get(part).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Position of a device id within the device table.
    fn index_of(&self, id: DeviceId) -> usize {
        self.devices
            .iter()
            .position(|d| d.id == id)
            // lint:allow(the ring only hands out device ids from its own
            // table; a miss here is a ring-construction bug, not a runtime
            // condition a caller could handle)
            .expect("device id present in ring")
    }

    /// The device record for an id.
    pub fn device(&self, id: DeviceId) -> &Device {
        &self.devices[self.index_of(id)]
    }

    /// Per-device assigned partition-replica counts.
    pub fn assignment_counts(&self) -> HashMap<DeviceId, usize> {
        let mut counts: HashMap<DeviceId, usize> =
            self.devices.iter().map(|d| (d.id, 0)).collect();
        for replicas in &self.part2dev {
            for d in replicas {
                *counts.entry(*d).or_default() += 1;
            }
        }
        counts
    }

    /// Desired replica-assignments per device, by weight share.
    fn desired_counts(&self) -> Vec<f64> {
        let total_weight: f64 = self.devices.iter().map(|d| d.weight).sum();
        let total_assignments = (self.partitions() * self.replicas) as f64;
        self.devices
            .iter()
            .map(|d| total_assignments * d.weight / total_weight)
            .collect()
    }

    /// Assign every partition from scratch (initial build).
    fn assign_all(&mut self) {
        self.part2dev = vec![Vec::new(); self.partitions()];
        let desired = self.desired_counts();
        let mut current = vec![0usize; self.devices.len()];
        for part in 0..self.partitions() {
            let mut replicas = Self::pick_devices(
                &self.devices,
                &desired,
                &mut current,
                self.replicas,
                part,
                &[],
            );
            Self::rotate_primary(part, &mut replicas);
            self.part2dev[part] = replicas;
        }
    }

    /// Rotate the replica list by a per-partition hash so the *primary* role
    /// (tried first on reads) spreads uniformly over a partition's devices.
    /// `checked_rem` makes an empty replica set (drastic rebalance /
    /// all-nodes-down windows) a deterministic no-op instead of a `% 0`
    /// panic.
    fn rotate_primary(part: usize, replicas: &mut [DeviceId]) {
        if let Some(r) = hash64(&(part as u64).to_le_bytes()).checked_rem(replicas.len() as u64) {
            replicas.rotate_left(r as usize);
        }
    }

    /// Pick `want` devices for a partition, preferring (in order): devices the
    /// partition already uses staying put (`keep`), under-filled devices, zone
    /// diversity, node diversity. `desired`/`current` are indexed by position
    /// in `devices`.
    fn pick_devices(
        devices: &[Device],
        desired: &[f64],
        current: &mut [usize],
        want: usize,
        part: usize,
        keep: &[DeviceId],
    ) -> Vec<DeviceId> {
        let pos_of = |id: DeviceId| devices.iter().position(|d| d.id == id);
        let mut chosen: Vec<DeviceId> = Vec::with_capacity(want);
        // Retain existing assignments first (minimal movement on rebalance),
        // but only while the device remains under its desired share.
        for &d in keep {
            if chosen.len() >= want {
                break;
            }
            if let Some(i) = pos_of(d) {
                if (current[i] as f64) < desired[i].ceil() {
                    chosen.push(d);
                    current[i] += 1;
                }
            }
        }
        while chosen.len() < want {
            let used_zones: Vec<u32> = chosen
                .iter()
                .filter_map(|d| pos_of(*d).map(|i| devices[i].zone))
                .collect();
            let used_nodes: Vec<u32> = chosen
                .iter()
                .filter_map(|d| pos_of(*d).map(|i| devices[i].node))
                .collect();
            // Score: fill deficit (desired - current), with diversity bonuses.
            // Deterministic tie-break via a part+device hash to spread load.
            let best = devices
                .iter()
                .enumerate()
                .filter(|(_, d)| !chosen.contains(&d.id))
                .map(|(i, d)| {
                    let deficit = desired[i] - current[i] as f64;
                    let zone_bonus = if used_zones.contains(&d.zone) { 0.0 } else { 1e6 };
                    let node_bonus = if used_nodes.contains(&d.node) { 0.0 } else { 1e3 };
                    let tiebreak = (hash64(format!("{part}:{}", d.id.0).as_bytes()) % 1000)
                        as f64
                        * 1e-9;
                    (i, d.id, deficit + zone_bonus + node_bonus + tiebreak)
                })
                .max_by(|a, b| a.2.total_cmp(&b.2))
                .map(|(i, id, _)| (i, id));
            match best {
                Some((i, id)) => {
                    current[i] += 1;
                    chosen.push(id);
                }
                None => break,
            }
        }
        chosen
    }

    /// Rebalance after device membership changes: keeps each partition's
    /// surviving assignments where possible and only reassigns what must move.
    ///
    /// `new_devices` replaces the device table; ids of surviving devices must
    /// be preserved by the caller.
    pub fn rebalance(&mut self, new_devices: Vec<Device>) -> Result<usize> {
        if new_devices.is_empty() {
            return Err(ScoopError::InvalidRequest("ring has no devices".into()));
        }
        let old = std::mem::replace(&mut self.devices, new_devices);
        self.replicas = self.replicas.min(self.devices.len());
        let live: std::collections::HashSet<DeviceId> =
            self.devices.iter().map(|d| d.id).collect();
        let desired = self.desired_counts();
        let mut current = vec![0usize; self.devices.len()];
        let mut moved = 0usize;
        let old_assignments = std::mem::take(&mut self.part2dev);
        self.part2dev = Vec::with_capacity(old_assignments.len());
        for (part, old_reps) in old_assignments.into_iter().enumerate() {
            let keep: Vec<DeviceId> = old_reps
                .iter()
                .copied()
                .filter(|d| live.contains(d))
                .collect();
            let mut picked = Self::pick_devices(
                &self.devices,
                &desired,
                &mut current,
                self.replicas,
                part,
                &keep,
            );
            moved += picked.iter().filter(|d| !old_reps.contains(d)).count();
            Self::rotate_primary(part, &mut picked);
            self.part2dev.push(picked);
        }
        drop(old);
        Ok(moved)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build_ring(nodes: u32, devs_per_node: u32, part_power: u32, replicas: usize) -> Ring {
        let mut b = RingBuilder::new(part_power, replicas);
        for n in 0..nodes {
            for _ in 0..devs_per_node {
                b.add_device(n, n % 4, 1.0);
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn every_partition_has_distinct_replicas() {
        let ring = build_ring(8, 4, 10, 3);
        for part in 0..ring.partitions() {
            let devs = ring.devices_of_partition(part);
            assert_eq!(devs.len(), 3);
            let mut uniq = devs.to_vec();
            uniq.sort();
            uniq.dedup();
            assert_eq!(uniq.len(), 3, "partition {part} has duplicate devices");
            // Zone diversity: with 4 zones and 3 replicas, all distinct.
            let zones: std::collections::HashSet<u32> =
                devs.iter().map(|d| ring.device(*d).zone).collect();
            assert_eq!(zones.len(), 3, "partition {part} lacks zone diversity");
        }
    }

    #[test]
    fn balanced_within_tolerance() {
        let ring = build_ring(10, 3, 12, 3);
        let counts = ring.assignment_counts();
        let expected = ring.partitions() * 3 / 30;
        for (dev, count) in counts {
            assert!(
                (count as f64) > expected as f64 * 0.8
                    && (count as f64) < expected as f64 * 1.2,
                "device {dev:?}: {count} assignments (expected ~{expected})"
            );
        }
    }

    #[test]
    fn weights_steer_share() {
        let mut b = RingBuilder::new(12, 2);
        b.add_device(0, 0, 1.0);
        b.add_device(1, 1, 1.0);
        b.add_device(2, 2, 2.0); // double weight
        b.add_device(3, 3, 1.0);
        let ring = b.build().unwrap();
        let counts = ring.assignment_counts();
        let heavy = counts[&DeviceId(2)] as f64;
        let light = counts[&DeviceId(0)] as f64;
        let ratio = heavy / light;
        assert!((1.5..3.0).contains(&ratio), "weight ratio {ratio}");
    }

    #[test]
    fn lookup_is_deterministic_and_uniform() {
        let ring = build_ring(6, 2, 10, 3);
        let a = ring.lookup("/acct/cont/obj-1").to_vec();
        assert_eq!(ring.lookup("/acct/cont/obj-1"), a.as_slice());
        // Distribution across primary devices.
        let mut counts: HashMap<DeviceId, usize> = HashMap::new();
        for i in 0..12_000 {
            let key = format!("/acct/cont/obj-{i}");
            *counts.entry(ring.lookup(&key)[0]).or_default() += 1;
        }
        let expected = 12_000 / 12;
        for (dev, c) in counts {
            assert!(
                c > expected / 2 && c < expected * 2,
                "device {dev:?} got {c} primaries"
            );
        }
    }

    #[test]
    fn rebalance_moves_minimally_on_add() {
        let mut ring = build_ring(6, 2, 10, 3);
        let before: Vec<Vec<DeviceId>> = (0..ring.partitions())
            .map(|p| ring.devices_of_partition(p).to_vec())
            .collect();
        // Add one device on a new node.
        let mut devices = ring.devices().to_vec();
        devices.push(Device {
            id: DeviceId(devices.len() as u32),
            node: 6,
            zone: 2,
            weight: 1.0,
        });
        let moved = ring.rebalance(devices).unwrap();
        let total = ring.partitions() * 3;
        // Ideal movement is total/13 ≈ 7.7%; allow 3x headroom.
        assert!(
            (moved as f64) < total as f64 * 0.25,
            "moved {moved} of {total} assignments"
        );
        // Every partition still has 3 distinct replicas.
        for p in 0..ring.partitions() {
            let devs = ring.devices_of_partition(p);
            assert_eq!(devs.len(), 3);
            let mut u = devs.to_vec();
            u.sort();
            u.dedup();
            assert_eq!(u.len(), 3);
        }
        // And most assignments survived.
        let kept: usize = (0..ring.partitions())
            .map(|p| {
                ring.devices_of_partition(p)
                    .iter()
                    .filter(|d| before[p].contains(d))
                    .count()
            })
            .sum();
        assert!(kept as f64 > total as f64 * 0.75, "kept only {kept}/{total}");
    }

    #[test]
    fn rebalance_handles_device_removal() {
        let mut ring = build_ring(4, 2, 8, 3);
        let victim = DeviceId(0);
        let devices: Vec<Device> = ring
            .devices()
            .iter()
            .filter(|d| d.id != victim)
            .cloned()
            .collect();
        ring.rebalance(devices).unwrap();
        for p in 0..ring.partitions() {
            assert!(
                !ring.devices_of_partition(p).contains(&victim),
                "partition {p} still references removed device"
            );
            assert_eq!(ring.devices_of_partition(p).len(), 3);
        }
    }

    #[test]
    fn degenerate_assignments_degrade_without_panicking() {
        let ring = build_ring(4, 2, 8, 3);
        // Out-of-range partitions answer with no replicas, not a panic.
        assert!(ring.devices_of_partition(usize::MAX).is_empty());
        assert!(ring.devices_of_partition(ring.partitions()).is_empty());
        // Rotating an empty replica set is a deterministic no-op.
        let mut empty: Vec<DeviceId> = Vec::new();
        Ring::rotate_primary(7, &mut empty);
        assert!(empty.is_empty());
        // Single-replica sets are stable under rotation.
        let mut one = vec![DeviceId(3)];
        Ring::rotate_primary(7, &mut one);
        assert_eq!(one, vec![DeviceId(3)]);
    }

    #[test]
    fn builder_validation() {
        assert!(RingBuilder::new(4, 1).build().is_err());
        let mut b = RingBuilder::new(4, 1);
        b.add_device(0, 0, -1.0);
        assert!(b.build().is_err());
        // Replicas clamp to device count.
        let mut b = RingBuilder::new(4, 5);
        b.add_device(0, 0, 1.0);
        b.add_device(1, 1, 1.0);
        let ring = b.build().unwrap();
        assert_eq!(ring.replicas(), 2);
    }
}

//! Cluster shapes.


/// A homogeneous group of machines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeGroup {
    /// Machines in the group.
    pub count: usize,
    /// Cores per machine.
    pub cores: usize,
    /// RAM per machine in bytes.
    pub memory: u64,
}

impl NodeGroup {
    /// Total cores in the group.
    pub fn total_cores(&self) -> f64 {
        (self.count * self.cores) as f64
    }
}

/// The disaggregated deployment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Topology {
    /// Spark workers (compute cluster).
    pub compute: NodeGroup,
    /// Swift proxy servers.
    pub proxies: NodeGroup,
    /// Swift object servers (storage cluster).
    pub storage: NodeGroup,
    /// Inter-cluster load-balancer bandwidth in bytes/second.
    pub lb_bandwidth: f64,
    /// Per-proxy NIC bandwidth in bytes/second.
    pub proxy_bandwidth: f64,
}

impl Topology {
    /// The paper's OSIC testbed: HP DL380 Gen9, 2×12-core E5-2680 v3, 256 GB
    /// RAM; 25 Spark workers, 6 proxies, 29 object servers; the load
    /// balancer machine used a 10 Gbps link; nodes had 2×10 Gbps bonds.
    pub fn osic() -> Topology {
        let machine = NodeGroup { count: 0, cores: 24, memory: 256 * 1_000_000_000 };
        Topology {
            compute: NodeGroup { count: 25, ..machine },
            proxies: NodeGroup { count: 6, ..machine },
            storage: NodeGroup { count: 29, ..machine },
            lb_bandwidth: 1.25e9,        // 10 Gbps
            proxy_bandwidth: 2.5e9,      // 2×10 Gbps bond
        }
    }

    /// A deliberately small cluster for sensitivity tests.
    pub fn small() -> Topology {
        Topology {
            compute: NodeGroup { count: 4, cores: 8, memory: 64_000_000_000 },
            proxies: NodeGroup { count: 2, cores: 8, memory: 64_000_000_000 },
            storage: NodeGroup { count: 4, cores: 8, memory: 64_000_000_000 },
            lb_bandwidth: 1.25e9,
            proxy_bandwidth: 1.25e9,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn osic_matches_paper() {
        let t = Topology::osic();
        assert_eq!(t.compute.count, 25);
        assert_eq!(t.proxies.count, 6);
        assert_eq!(t.storage.count, 29);
        assert_eq!(t.compute.cores, 24);
        assert_eq!(t.lb_bandwidth, 1.25e9);
        assert_eq!(t.storage.total_cores(), 29.0 * 24.0);
    }
}

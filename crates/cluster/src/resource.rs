//! Cluster resource descriptions.

use std::fmt;

/// A cluster resource as advertised in the federation directory.
///
/// This is the paper's `R_i = (p_i, µ_i, γ_i)` together with the owner's
/// access price `c_i` (the *quote*).  All clusters are homogeneous
/// collections of machines, per the paper's definition.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceSpec {
    /// Human-readable name, e.g. `"CTC SP2"`.
    pub name: String,
    /// Number of processors `p_i`.
    pub processors: u32,
    /// Per-processor speed `µ_i` in MIPS.
    pub mips: f64,
    /// Interconnect bandwidth `γ_i` in Gb/s (NIC-to-network, Table 1).
    pub bandwidth: f64,
    /// Access price `c_i` in Grid Dollars per unit of computation
    /// (per 1000 MI in the paper's example; the unit cancels in comparisons).
    pub price: f64,
}

impl ResourceSpec {
    /// Creates a resource spec.
    ///
    /// # Panics
    /// Panics if any numeric field is non-positive.
    #[must_use]
    pub fn new(name: &str, processors: u32, mips: f64, bandwidth: f64, price: f64) -> Self {
        assert!(processors > 0, "a cluster needs at least one processor");
        assert!(mips > 0.0, "mips must be positive, got {mips}");
        assert!(bandwidth > 0.0, "bandwidth must be positive, got {bandwidth}");
        assert!(price > 0.0, "price must be positive, got {price}");
        ResourceSpec {
            name: name.to_string(),
            processors,
            mips,
            bandwidth,
            price,
        }
    }

    /// Returns a copy with a different name, used when replicating the
    /// Table 1 resources to build the larger federations of Experiment 5.
    #[must_use]
    pub fn replicated(&self, copy: usize) -> ResourceSpec {
        let mut spec = self.clone();
        if copy > 0 {
            spec.name = format!("{} #{}", self.name, copy + 1);
        }
        spec
    }
}

impl fmt::Display for ResourceSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} procs × {} MIPS, {} Gb/s, {:.2} G$/unit)",
            self.name, self.processors, self.mips, self.bandwidth, self.price
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_derived_quantities() {
        let r = ResourceSpec::new("CTC SP2", 512, 850.0, 2.0, 4.84);
        assert_eq!((r.processors, r.mips, r.bandwidth, r.price), (512, 850.0, 2.0, 4.84));
        assert!(format!("{r}").contains("CTC SP2"));
    }

    #[test]
    fn replication_renames_later_copies() {
        let r = ResourceSpec::new("KTH SP2", 100, 900.0, 1.6, 5.12);
        assert_eq!(r.replicated(0).name, "KTH SP2");
        assert_eq!(r.replicated(2).name, "KTH SP2 #3");
        assert_eq!(r.replicated(2).processors, 100);
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn zero_processors_rejected() {
        let _ = ResourceSpec::new("bad", 0, 1.0, 1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "price must be positive")]
    fn zero_price_rejected() {
        let _ = ResourceSpec::new("bad", 1, 1.0, 1.0, 0.0);
    }
}

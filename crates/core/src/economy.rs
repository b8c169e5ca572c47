//! The commodity-market economy of the Grid-Federation.
//!
//! Three pieces live here:
//!
//! * the pricing function of Eq. 5–6 (`c_i = (c/µ_max)·µ_i`), which
//!   reproduces the Quote column of Table 1,
//! * [`GridBank`], the credit-management service the paper delegates to
//!   GridBank: user accounts are debited and owner accounts credited when a
//!   job completes, and currency is conserved,
//! * helpers for applying prices to whole resource sets.

use grid_cluster::ResourceSpec;
use grid_workload::Job;

/// The access price of the fastest resource used by the paper's pricing
/// function (NASA iPSC, 930 MIPS, priced at 5.3 Grid Dollars).
pub const PAPER_ACCESS_PRICE: f64 = 5.3;

/// How a resource owner converts a job into a charge.
///
/// The paper states both conventions ("the cluster owner charges c_i per unit
/// time or per unit of million instructions executed, e.g. per 1000 MI") and
/// writes Eq. 4 in the per-unit-time form, but the magnitudes of its
/// incentive and budget figures (total incentive ≈ 2×10⁹ Grid Dollars,
/// average budget ≈ 9×10⁵ per job over the 2-day trace) only come out with
/// the per-1000-MI convention.  Both are implemented; the economy experiments
/// default to [`ChargingPolicy::PerKiloMi`], and
/// `tests/federation_integration.rs` compares them on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ChargingPolicy {
    /// `B(J, R_m) = c_m · l / (µ_m · p)` — Grid Dollars per CPU-second
    /// (the literal Eq. 4).
    PerCpuSecond,
    /// `B(J, R_m) = c_m · l / 1000` — Grid Dollars per 1000 MI of executed
    /// work (matches the paper's reported magnitudes).
    #[default]
    PerKiloMi,
}

impl ChargingPolicy {
    /// The charge for executing `job` on `target` under this policy.
    #[must_use]
    pub fn charge(self, job: &Job, target: &ResourceSpec) -> f64 {
        self.charge_at(job, target.mips, target.price)
    }

    /// [`Self::charge`] on a target given by its per-processor speed `mips`
    /// and access `price` alone, e.g. read off a directory quote.
    #[must_use]
    pub fn charge_at(self, job: &Job, mips: f64, price: f64) -> f64 {
        match self {
            ChargingPolicy::PerCpuSecond => price * job.compute_time(mips),
            ChargingPolicy::PerKiloMi => price * job.length_mi / 1_000.0,
        }
    }

    /// Fabricates the paper's QoS constraints (Eq. 7–8) under this charging
    /// policy: budget = 2 × charge on the origin, deadline = 2 × execution
    /// time on the origin.
    pub fn fabricate_qos_all(self, jobs: &mut [Job], origin: &ResourceSpec) {
        for job in jobs.iter_mut() {
            job.qos.budget = 2.0 * self.charge(job, origin);
            job.qos.deadline = 2.0 * grid_cluster::completion_time(job, origin, origin);
        }
    }
}

/// Computes a resource's quote with the paper's commodity-market pricing
/// function (Eq. 5–6): `c_i = (access_price / max_mips) · mips`.
///
/// # Panics
/// Panics unless all arguments are positive.
#[must_use]
pub fn quote_price(access_price: f64, max_mips: f64, mips: f64) -> f64 {
    assert!(access_price > 0.0, "access price must be positive");
    assert!(max_mips > 0.0, "max mips must be positive");
    assert!(mips > 0.0, "mips must be positive");
    access_price / max_mips * mips
}

/// Recomputes every resource's price with Eq. 5–6, using the fastest
/// resource in the slice as the reference.  Useful when constructing custom
/// federations whose prices should follow the paper's policy.
pub fn apply_commodity_pricing(resources: &mut [ResourceSpec], access_price: f64) {
    let max_mips = resources
        .iter()
        .map(|r| r.mips)
        .fold(f64::MIN, f64::max);
    assert!(max_mips > 0.0, "cannot price an empty resource set");
    for r in resources.iter_mut() {
        r.price = quote_price(access_price, max_mips, r.mips);
    }
}

/// The federation's credit-management service.
///
/// The paper assumes a GridBank service through which participants exchange
/// Grid Dollars.  Budgets are unbounded over the simulation (Eq. 7 gives each
/// job its own budget), so the bank only needs to track cumulative earnings
/// and spending — which is exactly what the incentive figures (Fig. 3a) plot.
#[derive(Debug, Clone, Default)]
pub struct GridBank {
    owner_earnings: Vec<f64>,
    user_spending: Vec<f64>,
}

impl GridBank {
    /// Creates a bank for a federation of `n` resources.
    #[must_use]
    pub fn new(n: usize) -> Self {
        GridBank {
            owner_earnings: vec![0.0; n],
            user_spending: vec![0.0; n],
        }
    }

    /// Records the payment for a completed job: the users of `payer_origin`
    /// pay `amount` to the owner of `payee_owner`.
    ///
    /// # Panics
    /// Panics if the amount is negative or either index is out of range.
    pub fn pay(&mut self, payer_origin: usize, payee_owner: usize, amount: f64) {
        assert!(amount >= 0.0, "payments cannot be negative, got {amount}");
        assert!(
            payer_origin < self.user_spending.len() && payee_owner < self.owner_earnings.len(),
            "unknown account (payer {payer_origin}, payee {payee_owner})"
        );
        self.user_spending[payer_origin] += amount;
        self.owner_earnings[payee_owner] += amount;
    }

    /// Total incentive earned by the owner of resource `owner` so far.
    #[must_use]
    pub fn earnings(&self, owner: usize) -> f64 {
        self.owner_earnings[owner]
    }

    /// Total spending of the users local to resource `origin` so far.
    #[must_use]
    pub fn spending(&self, origin: usize) -> f64 {
        self.user_spending[origin]
    }

    /// Spending of every origin's users (indexed by resource).
    #[must_use]
    pub fn all_spending(&self) -> &[f64] {
        &self.user_spending
    }

    /// Total Grid Dollars that changed hands.
    #[must_use]
    pub fn total_volume(&self) -> f64 {
        self.owner_earnings.iter().sum()
    }

    /// Corrupting test double: credits `amount` Grid Dollars to `owner`
    /// without debiting anyone, leaking currency into the federation.  Only
    /// exists so the invariant tests can prove the conservation check
    /// fires.
    #[cfg(feature = "invariants")]
    pub fn corrupt_leak(&mut self, owner: usize, amount: f64) {
        self.owner_earnings[owner] += amount;
    }

    /// Currency conservation check: total earnings must equal total spending
    /// (up to floating-point error).  Used by tests and debug assertions.
    #[must_use]
    pub fn is_balanced(&self) -> bool {
        let earned: f64 = self.owner_earnings.iter().sum();
        let spent: f64 = self.user_spending.iter().sum();
        (earned - spent).abs() <= 1e-6 * earned.abs().max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grid_cluster::paper_resources;

    #[test]
    fn pricing_reproduces_table1_quotes() {
        let resources = paper_resources();
        let max_mips = 930.0;
        for r in &resources {
            let predicted = quote_price(PAPER_ACCESS_PRICE, max_mips, r.spec.mips);
            assert!(
                (predicted - r.spec.price).abs() < 0.02,
                "{}: {} vs {}",
                r.spec.name,
                predicted,
                r.spec.price
            );
        }
    }

    #[test]
    fn apply_pricing_uses_fastest_as_reference() {
        let mut specs: Vec<ResourceSpec> = paper_resources().into_iter().map(|r| r.spec).collect();
        // Perturb prices, then restore them with the pricing policy.
        for s in specs.iter_mut() {
            s.price = 1.0;
        }
        apply_commodity_pricing(&mut specs, PAPER_ACCESS_PRICE);
        assert!((specs[4].price - 5.3).abs() < 1e-9); // NASA iPSC is the reference
        assert!((specs[0].price - 4.84).abs() < 0.01); // CTC SP2
        assert!((specs[3].price - 3.59).abs() < 0.01); // LANL Origin
    }

    #[test]
    fn bank_conserves_currency() {
        let mut bank = GridBank::new(4);
        bank.pay(0, 1, 100.0);
        bank.pay(2, 1, 50.0);
        bank.pay(1, 3, 25.0);
        assert!(bank.is_balanced());
        assert_eq!(bank.earnings(1), 150.0);
        assert_eq!(bank.spending(0), 100.0);
        assert_eq!(bank.spending(1), 25.0);
        assert_eq!(bank.total_volume(), 175.0);
        assert_eq!(bank.all_spending().iter().sum::<f64>(), 175.0);
    }

    #[test]
    fn self_payment_is_legal() {
        // A job executed on its own originating resource still pays the owner
        // (the owner happens to host the user, but the accounts are separate).
        let mut bank = GridBank::new(2);
        bank.pay(0, 0, 10.0);
        assert_eq!(bank.earnings(0), 10.0);
        assert_eq!(bank.spending(0), 10.0);
        assert!(bank.is_balanced());
    }

    #[test]
    #[should_panic(expected = "cannot be negative")]
    fn negative_payment_panics() {
        let mut bank = GridBank::new(2);
        bank.pay(0, 1, -5.0);
    }

    #[test]
    #[should_panic(expected = "unknown account")]
    fn unknown_account_panics() {
        let mut bank = GridBank::new(2);
        bank.pay(0, 7, 5.0);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn invalid_pricing_inputs_panic() {
        let _ = quote_price(5.3, 0.0, 100.0);
    }

    #[test]
    fn charging_policies_differ_in_the_expected_way() {
        use grid_workload::{JobId, UserId};
        let cheap_slow = ResourceSpec::new("LANL Origin", 2048, 630.0, 1.6, 3.59);
        let fast_pricey = ResourceSpec::new("NASA iPSC", 128, 930.0, 4.0, 5.3);
        let job = grid_workload::Job::from_runtime(
            JobId { origin: 0, seq: 0 },
            UserId { origin: 0, local: 0 },
            0.0,
            16,
            1_000.0,
            630.0,
            0.10,
        );
        // Per CPU-second: commodity pricing makes the charge nearly identical
        // everywhere (c_m / µ_m is constant up to the Table 1 rounding).
        let a = ChargingPolicy::PerCpuSecond.charge(&job, &cheap_slow);
        let b = ChargingPolicy::PerCpuSecond.charge(&job, &fast_pricey);
        assert!((a - b).abs() / a < 0.01, "{a} vs {b}");
        // Per 1000 MI: the faster resource is genuinely more expensive, which
        // is what gives the paper its OFC-vs-OFT budget separation.
        let a = ChargingPolicy::PerKiloMi.charge(&job, &cheap_slow);
        let b = ChargingPolicy::PerKiloMi.charge(&job, &fast_pricey);
        assert!(b > a * 1.3, "{b} should clearly exceed {a}");
        assert_eq!(ChargingPolicy::default(), ChargingPolicy::PerKiloMi);
    }

    #[test]
    fn budget_always_affords_the_origin_and_cheaper_resources() {
        // A corollary the scheduler relies on: with Eq. 7 budgets under the
        // literal Eq. 4, OFC users can always afford any resource whose
        // price/MIPS ratio is at most twice the origin's.
        use grid_workload::{JobId, Qos, Strategy, UserId};
        let origin = ResourceSpec::new("LANL CM5", 1024, 700.0, 1.0, 3.98);
        let mut jobs = vec![grid_workload::Job {
            id: JobId { origin: 2, seq: 0 },
            user: UserId { origin: 2, local: 0 },
            submit: 0.0,
            processors: 32,
            // 1800 s of compute on the 700-MIPS origin.
            length_mi: 1_800.0 * 700.0 * 32.0,
            comm_overhead: 200.0,
            qos: Qos { budget: 0.0, deadline: 0.0, strategy: Strategy::Ofc },
        }];
        let policy = ChargingPolicy::PerCpuSecond;
        policy.fabricate_qos_all(&mut jobs, &origin);
        let job = &jobs[0];
        assert_eq!(job.qos.strategy, Strategy::Ofc, "fabrication keeps the strategy");
        assert!(policy.charge(job, &origin) <= job.qos.budget);
        let cheaper = ResourceSpec::new("LANL Origin", 2048, 630.0, 1.6, 3.59);
        assert!(policy.charge(job, &cheaper) <= job.qos.budget);
    }

    #[test]
    fn qos_fabrication_follows_the_charging_policy() {
        use grid_workload::{JobId, UserId};
        let origin = ResourceSpec::new("CTC SP2", 512, 850.0, 2.0, 4.84);
        let mut jobs = vec![grid_workload::Job::from_runtime(
            JobId { origin: 0, seq: 0 },
            UserId { origin: 0, local: 0 },
            0.0,
            8,
            900.0,
            850.0,
            0.10,
        )];
        ChargingPolicy::PerKiloMi.fabricate_qos_all(&mut jobs, &origin);
        let expected_budget = 2.0 * 4.84 * jobs[0].length_mi / 1_000.0;
        assert!((jobs[0].qos.budget - expected_budget).abs() < 1e-6);
        assert!((jobs[0].qos.deadline - 2.0 * 900.0).abs() < 1e-6);
        ChargingPolicy::PerCpuSecond.fabricate_qos_all(&mut jobs, &origin);
        let expected_budget = 2.0 * 4.84 * jobs[0].compute_time(850.0);
        assert!((jobs[0].qos.budget - expected_budget).abs() < 1e-6);
    }
}

//! The paper's static tables: Table 1 (resource configuration, with the
//! quotes recomputed from the pricing function) and Table 4 (the
//! qualitative comparison of superscheduling systems).

use grid_cluster::paper_resources;
use grid_federation_core::{quote_price, PAPER_ACCESS_PRICE};

use crate::report::{f2, DataTable};

/// Renders Table 1: the eight resources with their traces, processor
/// counts, MIPS ratings, two-day job counts, the paper's quotes next to the
/// quotes Eq. 6 recomputes, and NIC bandwidth.
#[must_use]
pub fn table1() -> DataTable {
    let resources = paper_resources();
    let max_mips = resources
        .iter()
        .map(|r| r.spec.mips)
        .fold(f64::MIN, f64::max);
    let mut t = DataTable::new(
        "Table 1: Workload and Resource Configuration",
        &[
            "Index",
            "Resource / Cluster Name",
            "Trace",
            "Processors",
            "MIPS (rating)",
            "Jobs (2 days)",
            "Quote (Table 1)",
            "Quote (Eq. 6)",
            "NIC Bandwidth (Gb/s)",
        ],
    );
    for (i, r) in resources.iter().enumerate() {
        t.push_row(vec![
            (i + 1).to_string(),
            r.spec.name.clone(),
            r.trace_name.to_string(),
            r.spec.processors.to_string(),
            f2(r.spec.mips),
            r.jobs_two_days.to_string(),
            f2(r.spec.price),
            f2(quote_price(PAPER_ACCESS_PRICE, max_mips, r.spec.mips)),
            f2(r.spec.bandwidth),
        ]);
    }
    t
}

/// Table 4's rows in the paper's order: system, network model, scheduling
/// parameters and scheduling mechanism (coordination level).
const TABLE4: [[&str; 4]; 10] = [
    ["NASA-Superscheduler", "Random", "System-centric", "Partially coordinated"],
    ["Condor-Flock P2P", "P2P", "System-centric", "Partially coordinated"],
    ["Grid-Federation", "P2P (decentralized directory)", "User-centric", "Coordinated"],
    ["Legion-Federation", "Random", "System-centric", "Coordinated"],
    ["Nimrod-G", "Centralized", "User-centric", "Non-coordinated"],
    ["Condor-G", "Centralized", "System-centric", "Non-coordinated"],
    ["OurGrid", "P2P", "System-centric", "Coordinated"],
    ["Tycoon", "Centralized", "User-centric", "Non-coordinated"],
    ["Bellagio", "Centralized", "User-centric", "Coordinated"],
    ["Mosix-Grid", "Hierarchical", "System-centric", "Coordinated"],
];

/// Renders Table 4: the qualitative comparison of the ten superscheduling
/// systems the paper positions the Grid-Federation against.
#[must_use]
pub fn table4() -> DataTable {
    let mut t = DataTable::new(
        "Table 4: Superscheduling Systems Comparison",
        &[
            "Index",
            "System",
            "Network Model",
            "Scheduling Parameters",
            "Scheduling Mechanism",
        ],
    );
    for (i, row) in TABLE4.iter().enumerate() {
        let mut cells = vec![(i + 1).to_string()];
        cells.extend(row.iter().map(|c| (*c).to_string()));
        t.push_row(cells);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row<'a>(table: &'a DataTable, system: &str) -> &'a [String] {
        table
            .rows
            .iter()
            .find(|r| r[1] == system)
            .unwrap_or_else(|| panic!("no row for {system}"))
    }

    #[test]
    fn table1_quotes_match_the_pricing_function_to_the_cent() {
        let table = table1();
        assert_eq!(table.len(), 8);
        let col = |name: &str| table.columns.iter().position(|c| c == name).unwrap();
        let (paper, eq6) = (col("Quote (Table 1)"), col("Quote (Eq. 6)"));
        for r in &table.rows {
            let gap = (r[paper].parse::<f64>().unwrap() - r[eq6].parse::<f64>().unwrap()).abs();
            assert!(gap <= 0.01 + 1e-9, "{}: Table 1 {} vs Eq. 6 {}", r[1], r[paper], r[eq6]);
        }
    }

    #[test]
    fn table4_matches_the_paper() {
        let table = table4();
        assert_eq!(table.len(), 10);
        assert_eq!(
            row(&table, "Grid-Federation")[2..],
            ["P2P (decentralized directory)", "User-centric", "Coordinated"]
        );
        assert_eq!(row(&table, "Nimrod-G")[4], "Non-coordinated");
        // Only Grid-Federation combines user-centric parameters, coordination
        // and a decentralized directory — the claim the table makes.
        let unique = table
            .rows
            .iter()
            .filter(|r| {
                r[2] == "P2P (decentralized directory)"
                    && r[3] == "User-centric"
                    && r[4] == "Coordinated"
            })
            .count();
        assert_eq!(unique, 1);
    }

    #[test]
    fn ascii_rendering_contains_all_systems() {
        let table = table4();
        let text = table.to_ascii();
        for r in &table.rows {
            assert!(text.contains(r[1].as_str()), "missing {}", r[1]);
        }
        assert!(text.lines().count() >= 12);
    }

    #[test]
    fn table4_cells_use_the_paper_labels() {
        let table = table4();
        assert_eq!(row(&table, "Condor-Flock P2P")[2], "P2P");
        assert_eq!(row(&table, "Condor-G")[3], "System-centric");
        assert_eq!(row(&table, "Mosix-Grid")[4], "Coordinated");
        assert_eq!(table.rows[0][0], "1");
        assert_eq!(table.rows[9][0], "10");
    }
}

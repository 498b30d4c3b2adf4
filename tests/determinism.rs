//! Determinism and serialization round trips: the cost tables the paper
//! ships alongside trained models (§4, "the resulting cost tables are
//! tiny … and ship them with the trained model") must be reproducible and
//! parse back losslessly, and planning must be a pure function of them.

use pbqp_dnn_cost::{AnalyticCost, CostTable, MachineModel};
use pbqp_dnn_graph::models;
use pbqp_dnn_primitives::registry::{full_library, Registry};
use pbqp_dnn_select::{Optimizer, Strategy};

#[test]
fn analytic_cost_tables_are_identical_across_runs() {
    let reg = Registry::new(full_library());
    let cost = AnalyticCost::new(MachineModel::arm_a57_like(), 4);
    let net = models::googlenet();
    let a = CostTable::profile(&net, &reg, &cost);
    let b = CostTable::profile(&net, &reg, &cost);
    assert_eq!(a.to_text(), b.to_text());
}

#[test]
fn cost_table_text_round_trips_for_googlenet() {
    let reg = Registry::new(full_library());
    let cost = AnalyticCost::new(MachineModel::intel_haswell_like(), 1);
    let net = models::googlenet();
    let table = CostTable::profile(&net, &reg, &cost);
    let parsed = CostTable::parse(&table.to_text()).expect("own output parses");
    assert_eq!(parsed.layers().len(), table.layers().len());
    for (a, b) in table.layers().iter().zip(parsed.layers()) {
        assert_eq!(a.scenario, b.scenario);
        assert_eq!(a.costs.len(), b.costs.len());
    }
}

#[test]
fn plans_are_identical_across_runs() {
    let reg = Registry::new(full_library());
    let cost = AnalyticCost::new(MachineModel::intel_haswell_like(), 4);
    let opt = Optimizer::new(&reg, &cost);
    let net = models::alexnet();
    let p1 = opt.plan(&net, Strategy::Pbqp).unwrap();
    let p2 = opt.plan(&net, Strategy::Pbqp).unwrap();
    assert_eq!(p1.selected_primitives(), p2.selected_primitives());
    assert_eq!(p1.predicted_us, p2.predicted_us);
    assert_eq!(p1.transform_count(), p2.transform_count());
}

/// FNV-1a of everything GoogleNet's PBQP plan decides: every node's
/// kernel, representations and price, and every conversion chain.
fn googlenet_plan_hash() -> u64 {
    let reg = Registry::new(full_library());
    let cost = AnalyticCost::new(MachineModel::intel_haswell_like(), 1);
    let plan = Optimizer::new(&reg, &cost).plan(&models::googlenet(), Strategy::Pbqp).unwrap();
    let decided = format!("{:?}{:?}", plan.assignments, plan.edges);
    decided
        .bytes()
        .fold(0xcbf29ce484222325, |acc, b| (acc ^ u64::from(b)).wrapping_mul(0x100000001b3))
}

#[test]
#[ignore = "child process of plans_are_identical_across_processes"]
fn print_googlenet_plan_hash() {
    println!("plan-hash {:016x}", googlenet_plan_hash());
}

#[test]
fn plans_are_identical_across_processes() {
    // Hash-map iteration order is seeded per process, so a tie broken by
    // it repeats within a process and only shows across processes.
    let exe = std::env::current_exe().unwrap();
    let child_hash = || {
        let out = std::process::Command::new(&exe)
            .args(["print_googlenet_plan_hash", "--exact", "--ignored", "--nocapture"])
            .output()
            .expect("spawns the test binary");
        assert!(out.status.success(), "child failed: {}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8(out.stdout).unwrap();
        let hash = stdout.lines().find_map(|l| l.strip_prefix("plan-hash "));
        hash.expect("child printed its plan hash").to_owned()
    };
    let (first, second) = (child_hash(), child_hash());
    assert_eq!(first, second, "GoogleNet's plan differs between two processes");
    assert_eq!(first, format!("{:016x}", googlenet_plan_hash()), "and from this process's");
}

#[test]
fn planning_from_a_parsed_table_matches_planning_from_the_original() {
    // The deployment story: profile once, ship the text table, plan on
    // device from the parsed copy.
    let reg = Registry::new(full_library());
    let cost = AnalyticCost::new(MachineModel::arm_a57_like(), 1);
    let opt = Optimizer::new(&reg, &cost);
    let net = models::alexnet();
    let shapes = net.infer_shapes().unwrap();
    let original = CostTable::profile(&net, &reg, &cost);
    let shipped = CostTable::parse(&original.to_text()).unwrap();
    let p1 = opt.plan_with_table(&net, &shapes, &original, Strategy::Pbqp).unwrap();
    let p2 = opt.plan_with_table(&net, &shapes, &shipped, Strategy::Pbqp).unwrap();
    assert_eq!(p1.selected_primitives(), p2.selected_primitives());
    assert!((p1.predicted_us - p2.predicted_us).abs() < 1.0);
}

//! `--check`: a traced window of each workload through the protocol linter
//! and the serializability certifier.
//!
//! Not part of any timed run. One manager is traced per process at a time
//! (the workloads run one after another), so the process-global trace ring
//! never mixes two managers' transaction ids (ROADMAP item 1).

use crate::drive::Plan;
use crate::env::{Env, Served};
use crate::gen::Targets;
use crate::run::{cells_of, drive, gate, Load};
use crate::spec::Workload;
use std::sync::Arc;

/// Ring slots asked for (before the ring's first use) so a whole window fits.
const RING_CAPACITY: usize = 1 << 19;
/// Transactions traced per workload, all clients together: few enough that
/// their events fit the ring (a window with its head overwritten would show
/// the linter grants without their requests).
const CHECK_TXNS: u64 = 4_000;

/// Runs `workload` with `colock_trace` on and checks the window. Returns a
/// one-line summary.
pub fn check_workload(workload: Workload, seed: u64) -> Result<String, String> {
    if std::env::var_os("COLOCK_TRACE_CAP").is_none() {
        std::env::set_var("COLOCK_TRACE_CAP", RING_CAPACITY.to_string());
    }
    let clients = workload.clients();
    let cells = cells_of(workload);
    let targets = Arc::new(Targets::new(&cells));
    let env = Env::new(&cells);
    let mut served = (workload == Workload::ServedMix).then(|| Served::start(&env, clients));

    colock_trace::enable();
    let mark = colock_trace::current_seq();
    let txns = CHECK_TXNS / clients as u64;
    let plan = Plan::Count { txns };
    let load = Load {
        workload,
        seed,
        runners: clients,
        clients,
        stream_len: txns as usize,
    };
    let measured = drive(
        load.generate(&targets),
        seed,
        plan,
        &env,
        served.as_mut(),
        &targets,
    );
    let stragglers = served.map(Served::stop);
    colock_trace::disable();
    let measured = measured?;
    gate(workload, &env, &targets, &measured, stragglers)?;

    let recorded = colock_trace::current_seq() - mark;
    let events = colock_trace::events_since(mark);
    if events.len() as u64 != recorded {
        return Err(format!(
            "{}: trace ring kept {} of {recorded} events; raise COLOCK_TRACE_CAP",
            workload.name(),
            events.len()
        ));
    }
    let lint = colock_check::Linter::with_catalog(env.manager.store().catalog()).lint(&events);
    if !lint.is_clean() {
        return Err(format!(
            "{}: protocol violations:\n{}",
            workload.name(),
            lint.render()
        ));
    }
    let cert = colock_check::Certifier::new().certify(&events);
    if !cert.is_clean() {
        return Err(format!(
            "{}: trace is not conflict-serializable:\n{}",
            workload.name(),
            cert.render_with_context(&events)
        ));
    }
    Ok(format!(
        "{}: {} events, {} grants linted clean, {} committed txns certified, {} conflict edges, acyclic",
        workload.name(),
        events.len(),
        lint.grants_checked,
        cert.txns_committed,
        cert.edges
    ))
}

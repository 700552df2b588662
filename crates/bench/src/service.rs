//! Session driver: many concurrent client sessions against one shared
//! [`Pfs`].
//!
//! The paper's service scenario — one PFS cluster serving a whole machine
//! room — has many independent applications open *different* files on the
//! *same* I/O servers. Each session here is a one-rank MPI world running a
//! real workload through the full netCDF stack: FLASH-style checkpoint
//! writers (`put_vara_all` a record at a time) and strided analytics
//! readers (`get_vars_all` passes over shared datasets).
//!
//! ## Scheduling and determinism
//!
//! Sessions run on OS threads, but execution is serialized by a step gate:
//! exactly one session advances at a time, and the next grant always goes
//! to the session with the **smallest virtual clock** (ties broken by
//! session id). A grant is only handed out once every live session has
//! registered its clock, so the interleaving is a pure function of the
//! virtual times — independent of thread startup order or host load. Same
//! seed, same specs → same grant sequence → byte- and nanosecond-identical
//! results.
//!
//! Virtual clocks all start at zero, so sessions genuinely overlap in
//! *virtual* time: their requests contend for the same server NIC+disk
//! pipelines, and the wait a session spends behind *other* files' traffic
//! surfaces in the per-server `cross_file_stall` counters.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::{Condvar, Mutex};

use hpc_sim::Time;
use pnetcdf::{Dataset, Info, NcType, Version};
use pnetcdf_mpi::run_world;
use pnetcdf_pfs::Pfs;

/// What a session does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionKind {
    /// FLASH-style checkpoint writer: creates its own dataset and writes
    /// one record per step.
    CheckpointWriter,
    /// Analytics reader: strided `get_vars_all` passes over a shared,
    /// pre-created dataset.
    StridedReader,
}

/// One client session's workload.
#[derive(Clone, Debug)]
pub struct SessionSpec {
    /// Session id (also the determinism tie-break).
    pub id: usize,
    pub kind: SessionKind,
    /// Dataset path: created by writers, opened read-only by readers.
    /// Several readers naming the same path share that dataset.
    pub dataset: String,
    /// Steps (checkpoint records written, or read passes).
    pub steps: usize,
    /// Doubles per record (one step moves `8 * values_per_step` bytes for
    /// a writer; readers fetch every other value, half that).
    pub values_per_step: usize,
}

/// Per-session outcome.
#[derive(Clone, Debug)]
pub struct SessionResult {
    pub id: usize,
    pub kind: SessionKind,
    pub dataset: String,
    /// Payload bytes this session moved (excluding headers).
    pub bytes: u64,
    /// The session's final virtual clock.
    pub end: Time,
}

impl SessionResult {
    /// Session throughput over its own virtual lifetime, MB/s.
    pub fn mb_s(&self) -> f64 {
        self.bytes as f64 / 1e6 / (self.end.as_nanos().max(1) as f64 / 1e9)
    }
}

/// Outcome of a whole multi-session run.
#[derive(Clone, Debug)]
pub struct ServiceRun {
    pub sessions: Vec<SessionResult>,
    /// Sum of payload bytes over all sessions.
    pub aggregate_bytes: u64,
    /// Latest per-session end clock — the service-level makespan.
    pub makespan: Time,
}

impl ServiceRun {
    /// Aggregate throughput: all sessions' bytes over the makespan, MB/s.
    pub fn aggregate_mb_s(&self) -> f64 {
        self.aggregate_bytes as f64 / 1e6 / (self.makespan.as_nanos().max(1) as f64 / 1e9)
    }

    /// The best per-session throughput in this run.
    pub fn max_session_mb_s(&self) -> f64 {
        self.sessions.iter().map(|s| s.mb_s()).fold(0.0, f64::max)
    }
}

// ---------------------------------------------------------------------------
// The step gate.
// ---------------------------------------------------------------------------

struct GateState {
    /// Sessions waiting for a grant, keyed by (virtual nanos, id).
    ready: BinaryHeap<Reverse<(u64, usize)>>,
    /// The session currently executing a step, if any.
    granted: Option<usize>,
    /// Sessions that called [`StepGate::finish`].
    done: usize,
    nsessions: usize,
}

/// Serializes session steps in minimum-virtual-time order. See the module
/// docs for the determinism argument.
struct StepGate {
    state: Mutex<GateState>,
    cv: Condvar,
}

impl StepGate {
    fn new(nsessions: usize) -> StepGate {
        StepGate {
            state: Mutex::new(GateState {
                ready: BinaryHeap::new(),
                granted: None,
                done: 0,
                nsessions,
            }),
            cv: Condvar::new(),
        }
    }

    /// Grant the smallest-clock waiter — but only once *every* live
    /// session is accounted for (waiting or done), so the pick never
    /// depends on which thread happened to arrive first.
    fn promote(st: &mut GateState) {
        if st.granted.is_none() && st.ready.len() + st.done == st.nsessions {
            if let Some(Reverse((_, id))) = st.ready.pop() {
                st.granted = Some(id);
            }
        }
    }

    /// Release the previous grant (if `id` held one), register at `now`,
    /// and block until granted again. The caller then executes one step
    /// while holding the grant.
    fn turn(&self, id: usize, now: Time) {
        let mut st = self.state.lock().unwrap();
        if st.granted == Some(id) {
            st.granted = None;
        }
        st.ready.push(Reverse((now.as_nanos(), id)));
        Self::promote(&mut st);
        self.cv.notify_all();
        while st.granted != Some(id) {
            st = self.cv.wait(st).unwrap();
        }
    }

    /// Release the grant for good; `id` will not step again.
    fn finish(&self, id: usize) {
        let mut st = self.state.lock().unwrap();
        if st.granted == Some(id) {
            st.granted = None;
        }
        st.done += 1;
        Self::promote(&mut st);
        self.cv.notify_all();
    }
}

// ---------------------------------------------------------------------------
// Workload bodies.
// ---------------------------------------------------------------------------

/// Pre-create the shared analytics datasets readers will scan: one `field`
/// variable of `rows x values_per_step` doubles, filled deterministically.
/// Call before the measured run, then [`Pfs::reset_timing`] from that
/// quiescent point so setup traffic doesn't bill the sessions.
pub fn prepare_shared_datasets(pfs: &Pfs, names: &[String], rows: usize, values_per_step: usize) {
    for (di, name) in names.iter().enumerate() {
        run_world(1, pfs.config().clone(), |comm| {
            let mut ds = Dataset::create(comm, pfs, name, Version::Cdf1, &Info::new())
                .expect("create shared dataset");
            let r = ds.def_dim("row", rows as u64).expect("def_dim");
            let c = ds.def_dim("col", values_per_step as u64).expect("def_dim");
            let var = ds
                .def_var("field", NcType::Double, &[r, c])
                .expect("def_var");
            ds.enddef().expect("enddef");
            let buf: Vec<f64> = (0..rows * values_per_step)
                .map(|i| (di * 1_000_000 + i) as f64)
                .collect();
            ds.put_vara_all(var, &[0, 0], &[rows as u64, values_per_step as u64], &buf)
                .expect("fill shared dataset");
            ds.close().expect("close");
        });
    }
}

/// Run every session to completion over the shared file system. Each spec
/// gets its own one-rank world and steps in the gate's deterministic order.
pub fn run_sessions(pfs: &Pfs, specs: &[SessionSpec]) -> ServiceRun {
    let gate = StepGate::new(specs.len());
    let sessions: Vec<SessionResult> = std::thread::scope(|scope| {
        let gate = &gate;
        let handles: Vec<_> = specs
            .iter()
            .map(|spec| {
                let cfg = pfs.config().clone();
                let spec = spec.clone();
                scope.spawn(move || {
                    let run = run_world(1, cfg, |comm| match spec.kind {
                        SessionKind::CheckpointWriter => {
                            gate.turn(spec.id, comm.now());
                            let mut ds = Dataset::create(
                                comm,
                                pfs,
                                &spec.dataset,
                                Version::Cdf1,
                                &Info::new(),
                            )
                            .expect("create checkpoint");
                            let s = ds.def_dim("step", spec.steps as u64).expect("def_dim");
                            let c = ds
                                .def_dim("cell", spec.values_per_step as u64)
                                .expect("def_dim");
                            let var = ds
                                .def_var("data", NcType::Double, &[s, c])
                                .expect("def_var");
                            ds.enddef().expect("enddef");
                            let mut bytes = 0u64;
                            for step in 0..spec.steps {
                                gate.turn(spec.id, comm.now());
                                let buf: Vec<f64> = (0..spec.values_per_step)
                                    .map(|i| (spec.id * 7 + step * 3 + i) as f64)
                                    .collect();
                                ds.put_vara_all(
                                    var,
                                    &[step as u64, 0],
                                    &[1, spec.values_per_step as u64],
                                    &buf,
                                )
                                .expect("checkpoint record");
                                bytes += (spec.values_per_step * 8) as u64;
                            }
                            ds.close().expect("close");
                            gate.finish(spec.id);
                            bytes
                        }
                        SessionKind::StridedReader => {
                            gate.turn(spec.id, comm.now());
                            let mut ds =
                                Dataset::open(comm, pfs, &spec.dataset, true, &Info::new())
                                    .expect("open shared dataset");
                            let var = ds.inq_varid("field").expect("field var");
                            let rowdim = ds.inq_dimid("row").expect("row dim");
                            let rows = ds.inq_dim(rowdim).expect("row dim").1;
                            let half = (spec.values_per_step / 2) as u64;
                            let mut bytes = 0u64;
                            for step in 0..spec.steps {
                                gate.turn(spec.id, comm.now());
                                let row = step as u64 % rows;
                                // Every other value of one row: a strided
                                // analytics slice.
                                let vals: Vec<f64> = ds
                                    .get_vars_all(var, &[row, 0], &[1, half], &[1, 2])
                                    .expect("strided read");
                                bytes += (vals.len() * 8) as u64;
                            }
                            ds.close().expect("close");
                            gate.finish(spec.id);
                            bytes
                        }
                    });
                    SessionResult {
                        id: spec.id,
                        kind: spec.kind,
                        dataset: spec.dataset.clone(),
                        bytes: run.results[0],
                        end: run.makespan,
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let aggregate_bytes = sessions.iter().map(|s| s.bytes).sum();
    let makespan = sessions.iter().map(|s| s.end).max().unwrap_or(Time::ZERO);
    ServiceRun {
        sessions,
        aggregate_bytes,
        makespan,
    }
}

/// One measured run of a [`mixed_specs`] fleet on a fresh fully stored
/// cluster under `cfg`: the shared datasets are created first, and the
/// sessions are billed from that quiescent point — a cold, time-zero cluster
/// and an empty profile.
pub fn run_fleet(
    cfg: &hpc_sim::SimConfig,
    nsessions: usize,
    nshared: usize,
    steps: usize,
    values_per_step: usize,
) -> (ServiceRun, Pfs) {
    let pfs = Pfs::new(cfg.clone(), pnetcdf_pfs::StorageMode::Full);
    let (specs, shared) = mixed_specs(nsessions, nshared, steps, values_per_step);
    prepare_shared_datasets(&pfs, &shared, steps, values_per_step);
    pfs.reset_timing();
    cfg.profile.reset();
    (run_sessions(&pfs, &specs), pfs)
}

/// A standard mixed fleet: sessions alternate writer/reader; writers get
/// private `ckpt_<i>.nc` datasets, readers share `shared_<j>.nc` round-
/// robin over `nshared` pre-created datasets.
pub fn mixed_specs(
    nsessions: usize,
    nshared: usize,
    steps: usize,
    values_per_step: usize,
) -> (Vec<SessionSpec>, Vec<String>) {
    let shared: Vec<String> = (0..nshared).map(|j| format!("shared_{j}.nc")).collect();
    let specs = (0..nsessions)
        .map(|id| {
            if id % 2 == 0 {
                SessionSpec {
                    id,
                    kind: SessionKind::CheckpointWriter,
                    dataset: format!("ckpt_{id}.nc"),
                    steps,
                    values_per_step,
                }
            } else {
                SessionSpec {
                    id,
                    kind: SessionKind::StridedReader,
                    dataset: shared[(id / 2) % nshared].clone(),
                    steps,
                    values_per_step,
                }
            }
        })
        .collect();
    (specs, shared)
}

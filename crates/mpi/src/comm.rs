//! Communicators: the per-rank handle through which all MPI operations run.
//!
//! A [`Comm`] identifies (world, member group, this rank's index, collective
//! context). `MPI_COMM_WORLD` is created by [`crate::runtime::run_world`];
//! [`Comm::dup`] and [`Comm::split`] derive new communicators collectively,
//! exactly as MPI does.

use std::collections::BTreeMap;
use std::sync::Arc;

use hpc_sim::trace::events::layer;
use hpc_sim::{CollKind, Phase, PhaseScope, SharedClocks, SimConfig, Span, Time};

use parking_lot::Mutex;

use crate::collective::{CollContext, Loan};
use crate::error::{MpiError, MpiResult};
use crate::op::{from_bytes, to_bytes, ReduceOp, Reducible, Scalar};
use crate::p2p::{Envelope, Status};
use crate::runtime::WorldInner;

/// Everything a collective `finish` closure needs to account costs: shared
/// clocks, cost models (with the profile), and the world ranks of the group.
#[derive(Clone)]
pub struct CollEnv {
    /// Per-rank virtual clocks of the whole world.
    pub clocks: SharedClocks,
    /// Platform cost models.
    pub config: Arc<SimConfig>,
    /// `group[i]` = world rank of group member `i`.
    pub group: Arc<Vec<usize>>,
}

impl CollEnv {
    /// Synchronize the group's clocks to `max + extra`; returns the common
    /// time. This is the standard clock effect of a collective operation.
    pub fn sync_max(&self, extra: Time) -> Time {
        self.clocks.sync_max(&self.group, extra)
    }

    /// [`sync_max`](CollEnv::sync_max) with profile attribution: each
    /// member's entry skew (distance to the latest arriver) is charged to
    /// [`Phase::Wait`] and the operation cost itself to `phase`. Charging
    /// both sides keeps per-rank phase sums equal to the clocks. The
    /// two-phase I/O engine uses this directly with its own phases.
    pub fn sync_phase(&self, phase: Phase, cost: Time) -> Time {
        let profile = &self.config.profile;
        let events = &self.config.events;
        if profile.is_enabled() || events.is_enabled() {
            let snap = self.clocks.snapshot();
            let entry = self
                .group
                .iter()
                .map(|&r| snap[r])
                .max()
                .unwrap_or(Time::ZERO);
            for &r in self.group.iter() {
                if profile.is_enabled() {
                    profile.record_phase(r, Phase::Wait, (entry - snap[r]).as_nanos());
                    profile.record_phase(r, phase, cost.as_nanos());
                }
                if events.is_enabled() {
                    // Mirror the attribution as timeline spans: the entry
                    // skew and then the operation cost, tiling each
                    // member's clock across the collective.
                    if entry > snap[r] {
                        events.record(Span::new(
                            r,
                            layer::PHASE,
                            Phase::Wait.name(),
                            snap[r].as_nanos(),
                            entry.as_nanos(),
                        ));
                    }
                    if cost > Time::ZERO {
                        events.record(Span::new(
                            r,
                            layer::PHASE,
                            phase.name(),
                            entry.as_nanos(),
                            (entry + cost).as_nanos(),
                        ));
                    }
                }
            }
        }
        self.sync_max(cost)
    }

    /// [`sync_phase`](CollEnv::sync_phase) against [`Phase::Metadata`],
    /// additionally tallying the op in the per-kind collective table. All
    /// predefined MPI collectives route through here.
    pub fn sync_collective(&self, kind: CollKind, bytes: u64, cost: Time) -> Time {
        self.config
            .profile
            .record_collective(kind, bytes, cost.as_nanos());
        self.sync_phase(Phase::Metadata, cost)
    }

    /// Cost of one alltoallv round over this group, from the α–β network
    /// model: `max_send`/`max_recv` are the busiest endpoints' byte counts.
    /// The round is tallied in the per-kind collective table (so pipelined
    /// two-phase exchange rounds show up next to the predefined
    /// collectives), but no clock or phase timer is touched — callers that
    /// overlap rounds with other work own their timeline and charge phases
    /// along the critical path themselves.
    pub fn alltoallv_cost(&self, max_send: usize, max_recv: usize, total_bytes: u64) -> Time {
        let cost = self
            .config
            .network
            .alltoallv(max_send, max_recv, self.size());
        self.config
            .profile
            .record_collective(CollKind::Alltoallv, total_bytes, cost.as_nanos());
        cost
    }

    /// Set every group member's clock to exactly `t` (used by collective
    /// I/O, which computes its own completion time).
    pub fn set_all(&self, t: Time) {
        for &r in self.group.iter() {
            self.clocks.advance_to(r, t);
        }
    }

    /// Group size.
    pub fn size(&self) -> usize {
        self.group.len()
    }
}

/// A communicator handle owned by one rank.
///
/// Cloning yields another handle to the *same* communicator for the same
/// rank (useful for storing in file objects); it does not create a new
/// communicator — use [`Comm::dup`] for that.
#[derive(Clone)]
pub struct Comm {
    world: Arc<WorldInner>,
    group: Arc<Vec<usize>>,
    my_index: usize,
    ctx: Arc<CollContext>,
}

impl Comm {
    pub(crate) fn world(world: Arc<WorldInner>, ctx: Arc<CollContext>, rank: usize) -> Comm {
        let group = Arc::new((0..world.nprocs).collect::<Vec<_>>());
        Comm {
            world,
            group,
            my_index: rank,
            ctx,
        }
    }

    // ---- identity ---------------------------------------------------------

    /// This rank's index within the communicator (`MPI_Comm_rank`).
    pub fn rank(&self) -> usize {
        self.my_index
    }

    /// Number of members (`MPI_Comm_size`).
    pub fn size(&self) -> usize {
        self.group.len()
    }

    /// This rank's index in `MPI_COMM_WORLD`.
    pub fn world_rank(&self) -> usize {
        self.group[self.my_index]
    }

    /// Platform configuration of the world.
    pub fn config(&self) -> &SimConfig {
        &self.world.config
    }

    // ---- virtual clock ------------------------------------------------------

    /// This rank's current virtual time.
    pub fn now(&self) -> Time {
        self.world.clocks.now(self.world_rank())
    }

    /// Advance this rank's clock by `dt` (local work: packing, compute).
    ///
    /// The delta is charged to the ambient [`hpc_sim::PhaseScope`]
    /// (defaulting to [`Phase::Compute`]), which is how most local work in
    /// the stack gets attributed without per-call-site instrumentation.
    pub fn advance(&self, dt: Time) -> Time {
        self.advance_attr(dt, Phase::Compute)
    }

    /// Move this rank's clock forward to `t` if later.
    pub fn advance_to(&self, t: Time) -> Time {
        self.advance_to_attr(t, Phase::Compute)
    }

    fn advance_attr(&self, dt: Time, default: Phase) -> Time {
        let w = self.world_rank();
        let cfg = &self.world.config;
        if cfg.profile.is_enabled() {
            cfg.profile.record_scoped(w, default, dt.as_nanos());
        }
        if cfg.events.is_enabled() && dt > Time::ZERO {
            let begin = self.world.clocks.now(w).as_nanos();
            let phase = PhaseScope::current(default);
            cfg.events.record(Span::new(
                w,
                layer::PHASE,
                phase.name(),
                begin,
                begin + dt.as_nanos(),
            ));
        }
        self.world.clocks.advance(w, dt)
    }

    fn advance_to_attr(&self, t: Time, default: Phase) -> Time {
        let w = self.world_rank();
        let cfg = &self.world.config;
        let now = self.world.clocks.now(w);
        if cfg.profile.is_enabled() {
            cfg.profile
                .record_scoped(w, default, t.saturating_sub(now).as_nanos());
        }
        if cfg.events.is_enabled() && t > now {
            let phase = PhaseScope::current(default);
            cfg.events.record(Span::new(
                w,
                layer::PHASE,
                phase.name(),
                now.as_nanos(),
                t.as_nanos(),
            ));
        }
        self.world.clocks.advance_to(w, t)
    }

    /// When this rank's client link is free to carry its next read
    /// ([`SharedClocks::link_free`]).
    pub fn link_free(&self) -> Time {
        self.world.clocks.link_free(self.world_rank())
    }

    /// Record that this rank's client link carries reads until `t`.
    pub fn set_link_free(&self, t: Time) {
        self.world.clocks.set_link_free(self.world_rank(), t);
    }

    /// Clone of the shared clock array (for the I/O layers).
    pub fn clocks(&self) -> SharedClocks {
        self.world.clocks.clone()
    }

    // ---- generic collective ------------------------------------------------

    /// Capture the environment a `finish` closure needs.
    pub fn coll_env(&self) -> CollEnv {
        CollEnv {
            clocks: self.world.clocks.clone(),
            config: self.world.config.clone(),
            group: self.group.clone(),
        }
    }

    /// Low-level collective: lend `loan` for the duration of the call and
    /// run `finish` at the last arriver over every member's loan (see
    /// [`CollContext::rendezvous`]). The closure is responsible for clock
    /// accounting (usually via [`CollEnv::sync_max`]).
    ///
    /// This is the extension point the MPI-IO layer uses to implement
    /// two-phase collective I/O deterministically, reading every rank's
    /// payload and filling every rank's destination where they lie.
    pub fn collective<M, R, F>(&self, loan: Loan<'_, M>, finish: F) -> MpiResult<Arc<R>>
    where
        M: ?Sized + Sync + 'static,
        R: Send + Sync + 'static,
        F: for<'x> FnOnce(&mut [Loan<'x, M>]) -> R,
    {
        self.world.config.profile.record_mpi(|m| m.rendezvous += 1);
        self.ctx.rendezvous(self.my_index, loan, finish)
    }

    // ---- predefined collectives ---------------------------------------------

    /// `MPI_Barrier`.
    pub fn barrier(&self) -> MpiResult<()> {
        let env = self.coll_env();
        self.collective(Loan::nothing(), move |_| {
            let cost = env.config.network.barrier(env.size());
            env.sync_collective(CollKind::Barrier, 0, cost);
        })
        .map(|_| ())
    }

    /// `MPI_Bcast` of a byte buffer. Every rank receives `root`'s buffer;
    /// non-roots typically pass an empty vector.
    pub fn bcast_bytes(&self, root: usize, mine: Vec<u8>) -> MpiResult<Vec<u8>> {
        self.check_rank(root)?;
        let env = self.coll_env();
        let res = self.collective(Loan::send(&[&mine]), move |loans| {
            let payload = loans[root].src.concat();
            let cost = env.config.network.bcast(payload.len(), env.size());
            env.sync_collective(CollKind::Bcast, payload.len() as u64, cost);
            payload
        })?;
        Ok(if self.my_index == root {
            mine
        } else {
            (*res).clone()
        })
    }

    /// `MPI_Allgatherv` of byte buffers: returns every rank's contribution,
    /// indexed by rank.
    pub fn allgather_bytes(&self, mine: Vec<u8>) -> MpiResult<Vec<Vec<u8>>> {
        let env = self.coll_env();
        let res = self.collective(Loan::send(&[&mine]), move |loans| {
            gather_rows(&env, CollKind::Allgather, loans)
        })?;
        Ok((*res).clone())
    }

    /// Allgather one scalar from each rank.
    pub fn allgather_scalar<T: Scalar>(&self, v: T) -> MpiResult<Vec<T>> {
        let all = self.allgather_bytes(to_bytes(&[v]))?;
        Ok(all.iter().map(|b| from_bytes::<T>(b)[0]).collect())
    }

    /// `MPI_Alltoallv`: `parts[i]` goes to rank `i`; returns what each rank
    /// sent to us, indexed by source.
    pub fn alltoallv_bytes(&self, parts: Vec<Vec<u8>>) -> MpiResult<Vec<Vec<u8>>> {
        if parts.len() != self.size() {
            return Err(MpiError::CollectiveMismatch(format!(
                "alltoallv parts len {} != comm size {}",
                parts.len(),
                self.size()
            )));
        }
        let env = self.coll_env();
        let me = self.my_index;
        // The parcels are handed over, not lent: the finisher takes each
        // rank's row out of its mutex, so the matrix is built by moves and
        // every rank copies only its own column, outside the rendezvous.
        let parts = Mutex::new(parts);
        let loan = Loan::describe(&parts);
        let res = self.collective(loan, move |loans: &mut [Loan<'_, Mutex<_>>]| {
            let n = env.size();
            let deps: Vec<Vec<Vec<u8>>> = (loans.iter())
                .map(|l| std::mem::take(&mut *l.meta.lock()))
                .collect();
            let max_send = deps
                .iter()
                .map(|row| row.iter().map(Vec::len).sum::<usize>())
                .max()
                .unwrap_or(0);
            let max_recv = (0..n)
                .map(|dst| deps.iter().map(|row| row[dst].len()).sum::<usize>())
                .max()
                .unwrap_or(0);
            let total: usize = deps
                .iter()
                .map(|row| row.iter().map(Vec::len).sum::<usize>())
                .sum();
            let cost = env.config.network.alltoallv(max_send, max_recv, n);
            env.sync_collective(CollKind::Alltoallv, total as u64, cost);
            deps // [src][dst]
        })?;
        Ok(res.iter().map(|row| row[me].clone()).collect())
    }

    /// `MPI_Allreduce` over a slice (elementwise).
    pub fn allreduce<T: Reducible>(&self, op: ReduceOp, vals: &[T]) -> MpiResult<Vec<T>> {
        let env = self.coll_env();
        let nvals = vals.len();
        let res = self.collective(Loan::send(&[&to_bytes(vals)]), move |loans| {
            let acc = reduce_rows::<T>(op, nvals, loans);
            let cost = env.config.network.allreduce(nvals * T::WIDTH, env.size());
            env.sync_collective(CollKind::Allreduce, (nvals * T::WIDTH) as u64, cost);
            acc
        })?;
        Ok((*res).clone())
    }

    /// Allreduce of a single scalar.
    pub fn allreduce_scalar<T: Reducible>(&self, op: ReduceOp, v: T) -> MpiResult<T> {
        Ok(self.allreduce(op, &[v])?[0])
    }

    // ---- point-to-point ------------------------------------------------------

    /// `MPI_Send` of a byte buffer to group rank `dest`.
    pub fn send_bytes(&self, dest: usize, tag: i32, data: Vec<u8>) -> MpiResult<()> {
        self.check_rank(dest)?;
        let len = data.len();
        self.world.config.profile.record_msg_size(len as u64);
        // Eager model: the sender pays the wire occupancy, the message
        // becomes visible at sender_time + latency.
        let send_done = self.advance_attr(self.world.config.network.transfer(len), Phase::P2p);
        let arrival = send_done + self.world.config.network.latency;
        let world_dest = self.group[dest];
        self.world.mailboxes[world_dest].deposit(Envelope {
            src_group_rank: self.my_index,
            tag,
            comm_id: self.ctx.id,
            data,
            arrival,
        });
        Ok(())
    }

    /// Send a slice of scalars.
    pub fn send_scalars<T: Scalar>(&self, dest: usize, tag: i32, vals: &[T]) -> MpiResult<()> {
        self.send_bytes(dest, tag, to_bytes(vals))
    }

    /// `MPI_Recv`: blocking receive matching `(src, tag)`; wildcards are
    /// [`crate::p2p::ANY_SOURCE`] / [`crate::p2p::ANY_TAG`].
    pub fn recv_bytes(&self, src: i32, tag: i32) -> MpiResult<(Vec<u8>, Status)> {
        if src >= 0 {
            self.check_rank(src as usize)?;
        }
        let env = self.world.mailboxes[self.world_rank()].recv(
            self.ctx.id,
            src,
            tag,
            &self.world.poisoned,
        )?;
        self.advance_to_attr(env.arrival, Phase::P2p);
        let status = Status {
            source: env.src_group_rank,
            tag: env.tag,
            len: env.data.len(),
        };
        Ok((env.data, status))
    }

    /// Receive a slice of scalars.
    pub fn recv_scalars<T: Scalar>(&self, src: i32, tag: i32) -> MpiResult<(Vec<T>, Status)> {
        let (bytes, st) = self.recv_bytes(src, tag)?;
        Ok((from_bytes(&bytes), st))
    }

    /// Nonblocking probe for a matching message.
    pub fn probe(&self, src: i32, tag: i32) -> Option<Status> {
        self.world.mailboxes[self.world_rank()].probe(self.ctx.id, src, tag)
    }

    // ---- communicator management ----------------------------------------------

    /// `MPI_Comm_dup`: a congruent communicator with its own collective
    /// context (so its traffic cannot match this one's).
    pub fn dup(&self) -> MpiResult<Comm> {
        let env = self.coll_env();
        let world = self.world.clone();
        let n = self.size();
        let ctx = self.collective(Loan::nothing(), move |_| {
            let cost = env.config.network.barrier(env.size());
            env.sync_collective(CollKind::Barrier, 0, cost);
            world.new_context(n)
        })?;
        Ok(Comm {
            world: self.world.clone(),
            group: self.group.clone(),
            my_index: self.my_index,
            ctx: (*ctx).clone(),
        })
    }

    /// `MPI_Comm_split`: ranks with equal `color` form a new communicator,
    /// ordered by `(key, old rank)`. A negative color (`MPI_UNDEFINED`)
    /// yields `None`.
    pub fn split(&self, color: i64, key: i64) -> MpiResult<Option<Comm>> {
        let env = self.coll_env();
        let world = self.world.clone();
        let group = self.group.clone();
        let deposit = to_bytes(&[color, key]);
        let me = self.my_index;
        let table = self.collective(Loan::send(&[&deposit]), move |loans| {
            // (color, key, old_index) for every member.
            let mut entries: Vec<(i64, i64, usize)> = loans
                .iter()
                .enumerate()
                .map(|(i, l)| {
                    let v = from_bytes::<i64>(&l.src.concat());
                    (v[0], v[1], i)
                })
                .collect();
            entries.sort_by_key(|&(c, k, i)| (c, k, i));
            let mut out: BTreeMap<i64, (Arc<Vec<usize>>, Arc<CollContext>)> = BTreeMap::new();
            let mut i = 0;
            while i < entries.len() {
                let color = entries[i].0;
                let mut members = Vec::new();
                while i < entries.len() && entries[i].0 == color {
                    members.push(group[entries[i].2]);
                    i += 1;
                }
                if color >= 0 {
                    let ctx = world.new_context(members.len());
                    out.insert(color, (Arc::new(members), ctx));
                }
            }
            let cost = env.config.network.barrier(env.size());
            env.sync_collective(CollKind::Barrier, 0, cost);
            (out, me) // me unused; keeps closure simple
        })?;
        if color < 0 {
            return Ok(None);
        }
        let (new_group, new_ctx) = table.0.get(&color).expect("own color present").clone();
        let my_world = self.world_rank();
        let my_index = new_group
            .iter()
            .position(|&w| w == my_world)
            .expect("member of own color group");
        Ok(Some(Comm {
            world: self.world.clone(),
            group: new_group,
            my_index,
            ctx: new_ctx,
        }))
    }

    fn check_rank(&self, r: usize) -> MpiResult<()> {
        if r >= self.size() {
            return Err(MpiError::InvalidRank {
                rank: r as i32,
                size: self.size(),
            });
        }
        Ok(())
    }
}

/// Collect every member's `src` payload, charging an allgather-shaped
/// collective of kind `kind` (allgather and gather share it).
fn gather_rows(env: &CollEnv, kind: CollKind, loans: &[Loan<'_, ()>]) -> Vec<Vec<u8>> {
    let rows: Vec<Vec<u8>> = loans.iter().map(|l| l.src.concat()).collect();
    let maxlen = rows.iter().map(Vec::len).max().unwrap_or(0);
    let total: usize = rows.iter().map(Vec::len).sum();
    let cost = env.config.network.allgather(maxlen, env.size());
    env.sync_collective(kind, total as u64, cost);
    rows
}

/// Elementwise reduction of every member's `src` (a row of `nvals` `T`s).
fn reduce_rows<T: Reducible>(op: ReduceOp, nvals: usize, loans: &[Loan<'_, ()>]) -> Vec<T> {
    let mut rows = loans.iter().map(|l| from_bytes::<T>(&l.src.concat()));
    let mut acc = rows.next().expect("at least one rank");
    assert_eq!(acc.len(), nvals, "reduce length mismatch across ranks");
    for row in rows {
        assert_eq!(row.len(), nvals, "reduce length mismatch across ranks");
        for (a, x) in acc.iter_mut().zip(row) {
            *a = T::reduce(op, *a, x);
        }
    }
    acc
}

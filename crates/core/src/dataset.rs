//! The parallel dataset object: `ncmpi_create` / `ncmpi_open` /
//! `ncmpi_enddef` / `ncmpi_redef` / `ncmpi_sync` / `ncmpi_close` and the
//! collective↔independent data-mode switch.
//!
//! Header strategy (paper §4.2.1): the header is read and written only by
//! rank 0; a copy is cached in local memory on every process. Define-mode,
//! attribute, and inquiry functions operate on the local copy — no file I/O,
//! and interprocess synchronization only at `enddef`.

use std::collections::HashMap;

use hpc_sim::{Phase, PhaseScope, Time};
use pnetcdf_format::layout::{self, Layout};
use pnetcdf_format::{Header, NcType, Version};
use pnetcdf_mpi::{Comm, Info, Loan, ReduceOp, RequestTable};
use pnetcdf_mpio::{MpiFile, OpenMode};
use pnetcdf_pfs::Pfs;

use crate::access::request::AccessReq;
use crate::consistency;
use crate::error::{NcmpiError, NcmpiResult};
use crate::profile::DatasetProfile;

/// Dataset mode. Data mode starts collective; `begin_indep_data` switches
/// to independent (paper §4.1: "the split of data mode into two distinct
/// modes: collective and noncollective").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DataMode {
    Define,
    Collective,
    Independent,
}

/// A parallel netCDF dataset handle (one per rank).
pub struct Dataset {
    pub(crate) comm: Comm,
    pub(crate) file: MpiFile,
    pub(crate) header: Header,
    pub(crate) layout: Layout,
    pub(crate) mode: DataMode,
    pub(crate) writable: bool,
    /// Alignment of the data section (the `nc_header_align_size` hint).
    pub(crate) align: u64,
    /// Whole-variable read cache filled by the `nc_prefetch_vars` hint
    /// (paper §4.1), keyed by variable id; external byte order.
    pub(crate) prefetch: HashMap<usize, Vec<u8>>,
    /// Fill mode (`ncmpi_set_fill`); default NOFILL like real PnetCDF.
    pub(crate) fill_mode: bool,
    pre_redef: Option<(Header, Layout)>,
    /// The request every blocking put and get lowers into, recycled so that
    /// its run list and staging buffer are allocated once, not per call.
    pub(crate) staging: AccessReq,
    /// Queued nonblocking requests, drained by `wait`/`wait_all`.
    pub(crate) pending: Vec<AccessReq>,
    /// Ticket issuer for nonblocking requests.
    pub(crate) req_table: RequestTable,
    /// Completed get results awaiting `take_result`, keyed by ticket id.
    /// A flush failure completes its gets with the (agreed) error, so the
    /// queue is always fully drained — a later `wait_all` never sees stale
    /// requests.
    pub(crate) results: HashMap<u64, NcmpiResult<(NcType, Vec<u8>)>>,
    /// Per-variable access counters for this rank (`ncmpi_inq_put_size`
    /// and friends); rolled up across ranks at `close`.
    pub(crate) profile: DatasetProfile,
    /// The PFS path, kept to key the close-time trace roll-up.
    pub(crate) path: String,
}

impl Dataset {
    /// Collectively create a dataset (`ncmpi_create`). The dataset starts
    /// in define mode.
    pub fn create(
        comm: &Comm,
        pfs: &Pfs,
        path: &str,
        version: Version,
        info: &Info,
    ) -> NcmpiResult<Dataset> {
        let file = MpiFile::open(comm, pfs, path, OpenMode::Create, info)?;
        Ok(Dataset {
            comm: comm.clone(),
            file,
            header: Header::new(version),
            layout: Layout {
                data_start: 0,
                record_start: 0,
                recsize: 0,
            },
            mode: DataMode::Define,
            writable: true,
            align: info
                .get_usize("nc_header_align_size")
                .map(|v| v as u64)
                .unwrap_or(4),
            prefetch: HashMap::new(),
            fill_mode: false,
            pre_redef: None,
            staging: AccessReq::default(),
            pending: Vec::new(),
            req_table: RequestTable::new(),
            results: HashMap::new(),
            profile: DatasetProfile::default(),
            path: path.to_string(),
        })
    }

    /// Collectively open an existing dataset (`ncmpi_open`): rank 0 reads
    /// the header and broadcasts it; every rank caches a local copy.
    pub fn open(
        comm: &Comm,
        pfs: &Pfs,
        path: &str,
        readonly: bool,
        info: &Info,
    ) -> NcmpiResult<Dataset> {
        let mode = if readonly {
            OpenMode::ReadOnly
        } else {
            OpenMode::ReadWrite
        };
        let file = MpiFile::open(comm, pfs, path, mode, info)?;
        // Rank 0 fetches the header bytes; everyone else receives them. The
        // header length is not known up front, so read a small chunk and
        // grow geometrically until it decodes (real netCDF does the same).
        let header_bytes = if comm.rank() == 0 {
            // Header fetches are metadata work, not data-path disk reads.
            let _meta = PhaseScope::enter(Phase::Metadata);
            let mut probe = 8192u64;
            let buf = loop {
                let take = probe.min(file.size()).max(32) as usize;
                let mut buf = vec![0u8; take];
                file.read_runs_into(&[(0, take as u64)], &mut buf)?;
                match Header::decode(&buf) {
                    Ok(_) => break buf,
                    Err(pnetcdf_format::FormatError::Corrupt(_)) if probe < file.size() => {
                        probe *= 4;
                    }
                    Err(e) => return Err(e.into()),
                }
            };
            comm.bcast_bytes(0, buf)?
        } else {
            comm.bcast_bytes(0, Vec::new())?
        };
        let (mut header, _) = Header::decode(&header_bytes)?;
        // Re-derive the layout from the on-disk begins rather than trusting
        // our own alignment policy: use the first variable's begin as the
        // data alignment evidence.
        let align = info
            .get_usize("nc_header_align_size")
            .map(|v| v as u64)
            .unwrap_or(4);
        let on_disk_begins: Vec<u64> = header.vars.iter().map(|v| v.begin).collect();
        let layout = layout::compute(&mut header, align)?;
        for (v, &disk_begin) in header.vars.iter().zip(&on_disk_begins) {
            if v.begin != disk_begin {
                return Err(NcmpiError::InvalidArgument(format!(
                    "variable '{}': on-disk begin {disk_begin} does not match computed {}; \
                     the file was written with a different alignment",
                    v.name, v.begin
                )));
            }
        }
        let mut ds = Dataset {
            comm: comm.clone(),
            file,
            header,
            layout,
            mode: DataMode::Collective,
            writable: !readonly,
            align,
            prefetch: HashMap::new(),
            fill_mode: false,
            pre_redef: None,
            staging: AccessReq::default(),
            pending: Vec::new(),
            req_table: RequestTable::new(),
            results: HashMap::new(),
            profile: DatasetProfile::default(),
            path: path.to_string(),
        };
        // PnetCDF-level hint: prefetch named variables at open time.
        if let Some(hint) = info.get("nc_prefetch_vars") {
            ds.prefetch_from_hint(hint)?;
        }
        Ok(ds)
    }

    // ---- mode checks -------------------------------------------------------

    pub(crate) fn require_define(&self) -> NcmpiResult<()> {
        if self.mode != DataMode::Define {
            return Err(NcmpiError::NotInDefineMode);
        }
        Ok(())
    }

    pub(crate) fn require_collective(&self) -> NcmpiResult<()> {
        match self.mode {
            DataMode::Collective => Ok(()),
            DataMode::Define => Err(NcmpiError::InDefineMode),
            DataMode::Independent => Err(NcmpiError::WrongDataMode("collective")),
        }
    }

    pub(crate) fn require_independent(&self) -> NcmpiResult<()> {
        match self.mode {
            DataMode::Independent => Ok(()),
            DataMode::Define => Err(NcmpiError::InDefineMode),
            DataMode::Collective => Err(NcmpiError::WrongDataMode("independent")),
        }
    }

    pub(crate) fn require_writable(&self) -> NcmpiResult<()> {
        if !self.writable {
            return Err(NcmpiError::ReadOnly);
        }
        Ok(())
    }

    /// Current data mode.
    pub fn mode(&self) -> DataMode {
        self.mode
    }

    /// The communicator this dataset was opened on.
    pub fn comm(&self) -> &Comm {
        &self.comm
    }

    // ---- define mode end / re-entry ---------------------------------------------

    /// Collectively leave define mode (`ncmpi_enddef`): verify all ranks
    /// built identical headers, compute the layout, and have rank 0 write
    /// the header.
    pub fn enddef(&mut self) -> NcmpiResult<()> {
        self.require_define()?;
        self.require_writable()?;
        let old = self.pre_redef.take();
        let old_names: Option<Vec<String>> = old
            .as_ref()
            .map(|(h, _)| h.vars.iter().map(|v| v.name.clone()).collect());
        self.layout = layout::compute(&mut self.header, self.align)?;
        let header_bytes = self.header.encode();
        consistency::check_same_header(&self.comm, &header_bytes)?;

        // Relocate existing data if a redefinition moved the layout. Each
        // variable is moved by one rank, in parallel (paper §4.3: "moving
        // the existing data to the extended area is performed in parallel").
        if let Some((old_header, old_layout)) = old {
            self.relocate(&old_header, old_layout)?;
        }

        // Rank 0 writes the header (plus alignment padding).
        if self.comm.rank() == 0 {
            let _meta = PhaseScope::enter(Phase::Metadata);
            let mut padded = header_bytes;
            padded.resize(self.layout.data_start as usize, 0);
            self.file
                .write_runs_at(&[(0, padded.len() as u64)], &padded)?;
        }
        self.comm.barrier()?;
        self.mode = DataMode::Collective;
        // Fill mode: prefill variables that did not exist before this
        // define pass (all of them on first enddef).
        if self.fill_mode {
            let new_vars: Vec<usize> = match &old_names {
                Some(names) => (0..self.header.vars.len())
                    .filter(|&v| !names.contains(&self.header.vars[v].name))
                    .collect(),
                None => (0..self.header.vars.len()).collect(),
            };
            self.prefill_fixed_vars(&new_vars)?;
        }
        // Leaving define mode: publish the header, relocation and prefill
        // bytes so data-mode reads on any rank observe the new layout.
        self.file.cache_boundary()?;
        Ok(())
    }

    fn relocate(&mut self, old_header: &Header, old_layout: Layout) -> NcmpiResult<()> {
        self.header.numrecs = old_header.numrecs;
        let nprocs = self.comm.size();
        for (old_id, ov) in old_header.vars.iter().enumerate() {
            let Some(new_id) = self.header.var_id(&ov.name) else {
                continue;
            };
            if old_id % nprocs != self.comm.rank() {
                continue;
            }
            let nv = &self.header.vars[new_id];
            if old_header.is_record_var(old_id) {
                let mut rec = vec![0u8; ov.vsize as usize];
                for r in 0..old_header.numrecs {
                    let from = (ov.begin + r * old_layout.recsize, ov.vsize);
                    self.file.read_runs_into(&[from], &mut rec)?;
                    let to = (nv.begin + r * self.layout.recsize, ov.vsize);
                    self.file.write_runs_at(&[to], &rec)?;
                }
            } else {
                let mut data = vec![0u8; ov.vsize as usize];
                self.file
                    .read_runs_into(&[(ov.begin, ov.vsize)], &mut data)?;
                self.file.write_runs_at(&[(nv.begin, ov.vsize)], &data)?;
            }
        }
        self.comm.barrier()?;
        Ok(())
    }

    /// Error if nonblocking requests are still queued: mode transitions and
    /// metadata flushes while accesses are in flight are undefined in real
    /// PnetCDF, so they are rejected here.
    pub(crate) fn require_no_pending(&self, what: &str) -> NcmpiResult<()> {
        if !self.pending.is_empty() {
            let mut vars: Vec<usize> = self.pending.iter().map(|r| r.varid).collect();
            vars.dedup();
            return Err(NcmpiError::InvalidArgument(format!(
                "cannot {what} with {} pending nonblocking request(s) on variable \
                 ids {vars:?}; call wait_all (or wait) first",
                self.pending.len()
            )));
        }
        Ok(())
    }

    /// Collectively re-enter define mode (`ncmpi_redef`).
    pub fn redef(&mut self) -> NcmpiResult<()> {
        if self.mode == DataMode::Define {
            return Err(NcmpiError::InDefineMode);
        }
        self.require_writable()?;
        self.require_no_pending("re-enter define mode")?;
        self.comm.barrier()?;
        // Entering define mode is a netCDF sync point: publish cached dirty
        // pages and revalidate, so relocation reads see every rank's data.
        // (No-op when the page cache is disabled.)
        self.file.cache_boundary()?;
        self.invalidate_all_caches();
        self.pre_redef = Some((self.header.clone(), self.layout));
        self.mode = DataMode::Define;
        Ok(())
    }

    // ---- numrecs reconciliation -----------------------------------------------

    /// Collectively agree on `numrecs` (max across ranks) and update the
    /// local headers. Called inside collective record writes and `sync`.
    pub(crate) fn reconcile_numrecs(&mut self) -> NcmpiResult<()> {
        let max = self
            .comm
            .allreduce_scalar(ReduceOp::Max, self.header.numrecs)?;
        self.header.numrecs = max;
        Ok(())
    }

    /// Collectively flush metadata (`ncmpi_sync`): reconcile `numrecs` and
    /// have rank 0 rewrite it.
    pub fn sync(&mut self) -> NcmpiResult<()> {
        if self.mode == DataMode::Define {
            return Err(NcmpiError::InDefineMode);
        }
        self.require_no_pending("sync")?;
        self.reconcile_numrecs()?;
        if self.writable && self.comm.rank() == 0 {
            let _meta = PhaseScope::enter(Phase::Metadata);
            let nr = (self.header.numrecs.min(u32::MAX as u64 - 1)) as u32;
            self.file.write_runs_at(&[(4, 4)], &nr.to_be_bytes())?;
        }
        self.file.sync()?;
        Ok(())
    }

    /// Collectively close the dataset (`ncmpi_close`). Pending nonblocking
    /// requests are flushed first (as `ncmpi_close` does).
    pub fn close(mut self) -> NcmpiResult<()> {
        if self.mode == DataMode::Define {
            if self.writable {
                self.enddef()?;
            } else {
                return Err(NcmpiError::InDefineMode);
            }
        } else if !self.pending.is_empty() {
            match self.mode {
                DataMode::Collective => self.wait_all()?,
                DataMode::Independent => self.wait()?,
                DataMode::Define => unreachable!("requests cannot be queued in define mode"),
            }
        }
        self.sync()?;
        self.rollup_profile()?;
        Ok(())
    }

    // ---- access profiling ---------------------------------------------------------

    /// This rank's per-variable access counters.
    pub fn profile(&self) -> &DatasetProfile {
        &self.profile
    }

    /// Bytes this rank has written to the dataset so far
    /// (`ncmpi_inq_put_size`).
    pub fn inq_put_size(&self) -> u64 {
        self.profile.put_size()
    }

    /// Bytes this rank has read from the dataset so far
    /// (`ncmpi_inq_get_size`).
    pub fn inq_get_size(&self) -> u64 {
        self.profile.get_size()
    }

    /// This rank's access counters as a report fragment, with variables
    /// labelled by name.
    pub fn inq_profile(&self) -> hpc_sim::trace::Json {
        let names: Vec<String> = self.header.vars.iter().map(|v| v.name.clone()).collect();
        self.profile.to_json(&names)
    }

    /// Collective: sum the per-rank dataset profiles and attach the global
    /// roll-up to the shared trace profile (rank 0 only), keyed by the
    /// dataset path. A no-op while tracing is disabled.
    ///
    /// The sum is the profile's bookkeeping, not a simulated
    /// `MPI_Allreduce`: the rows are lent through a bare rendezvous whose
    /// finisher adds them up and charges nothing — no clock moves and no
    /// collective is tallied — so turning the profile on cannot move what
    /// it observes.
    fn rollup_profile(&mut self) -> NcmpiResult<()> {
        let trace = self.comm.config().profile.clone();
        if !trace.is_enabled() {
            return Ok(());
        }
        let flat = self.profile.flatten(self.header.vars.len());
        let rows = Loan::describe(&flat[..]);
        let sum = self
            .comm
            .collective(rows, |loans: &mut [Loan<'_, [u64]>]| {
                let mut sum = vec![0u64; loans[0].meta.len()];
                for row in loans.iter().map(|loan| loan.meta) {
                    sum.iter_mut().zip(row).for_each(|(s, x)| *s += x);
                }
                sum
            })?;
        if self.comm.rank() == 0 {
            let global = DatasetProfile::unflatten(&sum);
            let names: Vec<String> = self.header.vars.iter().map(|v| v.name.clone()).collect();
            trace.attach_extra(&format!("dataset:{}", self.path), global.to_json(&names));
        }
        Ok(())
    }

    // ---- data-mode switch ---------------------------------------------------------

    /// Collectively enter independent data mode (`ncmpi_begin_indep_data`).
    pub fn begin_indep_data(&mut self) -> NcmpiResult<()> {
        self.require_collective()?;
        self.require_no_pending("switch to independent data mode")?;
        self.file.sync()?;
        self.mode = DataMode::Independent;
        Ok(())
    }

    /// Collectively leave independent data mode (`ncmpi_end_indep_data`).
    pub fn end_indep_data(&mut self) -> NcmpiResult<()> {
        self.require_independent()?;
        self.require_no_pending("return to collective data mode")?;
        // Local record counts may have diverged during independent writes,
        // and another rank's independent write may have invalidated data
        // this rank still holds in its prefetch cache.
        self.mode = DataMode::Collective;
        self.invalidate_all_caches();
        self.reconcile_numrecs()?;
        self.file.sync()?;
        Ok(())
    }

    /// Virtual time of this rank (for benchmarks).
    pub fn now(&self) -> Time {
        self.comm.now()
    }
}

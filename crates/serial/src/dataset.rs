//! The serial netCDF dataset object and its five data access methods.

use pnetcdf_format::layout::{self, Layout};
use pnetcdf_format::types::{default_fill_f64, fill_element_bytes, from_external, to_external};
use pnetcdf_format::{AttrValue, Header, NcType, NcValue, Version};

use crate::error::{NcError, NcResult};
use crate::storage::ByteStore;

/// Dataset mode: define (metadata edits) or data (array I/O).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    Define,
    Data,
}

/// An open serial netCDF dataset.
pub struct NcFile {
    store: Box<dyn ByteStore>,
    header: Header,
    layout: Layout,
    mode: Mode,
    writable: bool,
    numrecs_dirty: bool,
    /// Fill mode (`nc_set_fill`). Defaults to NOFILL here (matching the
    /// parallel library and PnetCDF; classic netCDF-3 defaulted to FILL).
    fill_mode: bool,
    /// Set by `redef`: layout before redefinition, for data relocation.
    pre_redef: Option<(Header, Layout)>,
}

impl NcFile {
    /// Create a new dataset in define mode (`nc_create`).
    pub fn create(store: impl ByteStore + 'static, version: Version) -> NcFile {
        NcFile {
            store: Box::new(store),
            header: Header::new(version),
            layout: Layout {
                data_start: 0,
                record_start: 0,
                recsize: 0,
            },
            mode: Mode::Define,
            writable: true,
            numrecs_dirty: false,
            fill_mode: false,
            pre_redef: None,
        }
    }

    /// Open an existing dataset in data mode (`nc_open`).
    pub fn open(store: impl ByteStore + 'static) -> NcResult<NcFile> {
        Self::open_with(store, true)
    }

    /// Open read-only.
    pub fn open_readonly(store: impl ByteStore + 'static) -> NcResult<NcFile> {
        Self::open_with(store, false)
    }

    fn open_with(store: impl ByteStore + 'static, writable: bool) -> NcResult<NcFile> {
        let mut store: Box<dyn ByteStore> = Box::new(store);
        // The header length is unknown up front: read a small chunk and
        // grow geometrically until it decodes.
        let mut probe = 8192u64;
        let bytes = loop {
            let take = probe.min(store.size()).max(32) as usize;
            let mut bytes = vec![0u8; take];
            store.read_at(0, &mut bytes);
            match Header::decode(&bytes) {
                Ok(_) => break bytes,
                Err(pnetcdf_format::FormatError::Corrupt(_)) if probe < store.size() => {
                    probe *= 4;
                }
                Err(e) => return Err(e.into()),
            }
        };
        let (mut header, _) = Header::decode(&bytes)?;
        let layout = layout::compute(&mut header, 4)?;
        // `compute` re-derives begins; trust but verify against the file.
        let (on_disk, _) = Header::decode(&bytes)?;
        for (a, b) in header.vars.iter().zip(on_disk.vars.iter()) {
            if a.begin != b.begin {
                return Err(NcError::Io(format!(
                    "variable '{}' has begin {} on disk but layout computes {}; \
                     file written with a different alignment",
                    a.name, b.begin, a.begin
                )));
            }
        }
        Ok(NcFile {
            store,
            header,
            layout,
            mode: Mode::Data,
            writable,
            numrecs_dirty: false,
            fill_mode: false,
            pre_redef: None,
        })
    }

    // ---- mode handling ---------------------------------------------------

    fn require_define(&self) -> NcResult<()> {
        if self.mode != Mode::Define {
            return Err(NcError::NotInDefineMode);
        }
        Ok(())
    }

    fn require_data(&self) -> NcResult<()> {
        if self.mode != Mode::Data {
            return Err(NcError::InDefineMode);
        }
        Ok(())
    }

    fn require_writable(&self) -> NcResult<()> {
        if !self.writable {
            return Err(NcError::ReadOnly);
        }
        Ok(())
    }

    /// Leave define mode: compute the layout, write the header, relocate
    /// existing data if a redefinition moved it (`nc_enddef`).
    pub fn enddef(&mut self) -> NcResult<()> {
        self.require_define()?;
        self.require_writable()?;
        let old = self.pre_redef.take();
        let relocated_names: Option<Vec<String>> = old
            .as_ref()
            .map(|(h, _)| h.vars.iter().map(|v| v.name.clone()).collect());
        self.layout = layout::compute(&mut self.header, 4)?;

        // Relocate data written under the previous layout. Reading
        // everything first makes the move order-safe.
        if let Some((old_header, old_layout)) = old {
            let mut saved: Vec<(usize, Vec<u8>)> = Vec::new();
            for (old_id, ov) in old_header.vars.iter().enumerate() {
                if let Some(new_id) = self.header.var_id(&ov.name) {
                    let len = if old_header.is_record_var(old_id) {
                        old_header.numrecs * old_layout.recsize
                    } else {
                        ov.vsize
                    };
                    // Record vars: grab the whole interleaved span from this
                    // var's begin; rewriting below uses the same recsize
                    // arithmetic, so per-record extraction is required.
                    let mut moved = Vec::new();
                    if old_header.is_record_var(old_id) {
                        let per = ov.vsize as usize;
                        let mut rec_buf = vec![0u8; per];
                        for r in 0..old_header.numrecs {
                            self.store
                                .read_at(ov.begin + r * old_layout.recsize, &mut rec_buf);
                            moved.extend_from_slice(&rec_buf);
                        }
                    } else {
                        moved = vec![0u8; len as usize];
                        self.store.read_at(ov.begin, &mut moved);
                    }
                    saved.push((new_id, moved));
                }
            }
            self.header.numrecs = old_header.numrecs;
            self.write_header()?;
            for (new_id, data) in saved {
                let nv = &self.header.vars[new_id];
                if self.header.is_record_var(new_id) {
                    let per = nv.vsize as usize;
                    for (r, chunk) in data.chunks(per.max(1)).enumerate() {
                        self.store
                            .write_at(nv.begin + r as u64 * self.layout.recsize, chunk);
                    }
                } else {
                    self.store.write_at(nv.begin, &data);
                }
            }
        } else {
            self.write_header()?;
        }
        if self.fill_mode {
            let new_vars: Vec<usize> = match &relocated_names {
                Some(names) => (0..self.header.vars.len())
                    .filter(|&v| !names.contains(&self.header.vars[v].name))
                    .collect(),
                None => (0..self.header.vars.len()).collect(),
            };
            self.prefill_fixed(&new_vars);
        }
        self.mode = Mode::Data;
        Ok(())
    }

    /// Switch fill mode (`nc_set_fill`); define mode only. Returns the
    /// previous setting. With fill on, fixed variables are prefilled at
    /// `enddef` and records created by a write are prefilled across all
    /// record variables before the write lands.
    pub fn set_fill(&mut self, fill: bool) -> NcResult<bool> {
        self.require_define()?;
        self.require_writable()?;
        Ok(std::mem::replace(&mut self.fill_mode, fill))
    }

    /// Current fill mode.
    pub fn fill_mode(&self) -> bool {
        self.fill_mode
    }

    fn fill_value_of(&self, varid: usize) -> f64 {
        let v = &self.header.vars[varid];
        v.atts
            .iter()
            .find(|a| a.name == "_FillValue")
            .and_then(|a| match &a.value {
                AttrValue::Byte(x) => x.first().map(|&b| b as f64),
                AttrValue::Char(t) => t.bytes().next().map(|b| b as f64),
                AttrValue::Short(x) => x.first().map(|&v| v as f64),
                AttrValue::Int(x) => x.first().map(|&v| v as f64),
                AttrValue::Float(x) => x.first().map(|&v| v as f64),
                AttrValue::Double(x) => x.first().copied(),
            })
            .unwrap_or_else(|| default_fill_f64(v.nctype))
    }

    /// Pattern of `nbytes` of fill for `varid` (whole elements).
    fn fill_pattern(&self, varid: usize, nbytes: u64) -> Vec<u8> {
        let elem = fill_element_bytes(self.header.vars[varid].nctype, self.fill_value_of(varid));
        let mut out = Vec::with_capacity(nbytes as usize);
        while (out.len() as u64) < nbytes {
            out.extend_from_slice(&elem);
        }
        out.truncate(nbytes as usize);
        out
    }

    /// Prefill the fixed variables named in `varids`.
    fn prefill_fixed(&mut self, varids: &[usize]) {
        for &v in varids {
            if self.header.is_record_var(v) {
                continue;
            }
            let bytes = self.header.record_elems(v) * self.header.vars[v].nctype.size();
            let pattern = self.fill_pattern(v, bytes);
            let begin = self.header.vars[v].begin;
            self.store.write_at(begin, &pattern);
        }
    }

    /// Prefill records `from..to` of every record variable.
    fn prefill_records(&mut self, from: u64, to: u64) {
        let rec_vars: Vec<usize> = (0..self.header.vars.len())
            .filter(|&v| self.header.is_record_var(v))
            .collect();
        for r in from..to {
            for &v in &rec_vars {
                let bytes = self.header.record_elems(v) * self.header.vars[v].nctype.size();
                let pattern = self.fill_pattern(v, bytes);
                let begin = self.header.vars[v].begin + r * self.layout.recsize;
                self.store.write_at(begin, &pattern);
            }
        }
    }

    /// Re-enter define mode (`nc_redef`).
    pub fn redef(&mut self) -> NcResult<()> {
        self.require_data()?;
        self.require_writable()?;
        self.pre_redef = Some((self.header.clone(), self.layout));
        self.mode = Mode::Define;
        Ok(())
    }

    fn write_header(&mut self) -> NcResult<()> {
        let bytes = self.header.encode();
        self.store.write_at(0, &bytes);
        // Pad up to data_start so the file is well-formed on disk.
        if (bytes.len() as u64) < self.layout.data_start {
            let pad = vec![0u8; (self.layout.data_start - bytes.len() as u64) as usize];
            self.store.write_at(bytes.len() as u64, &pad);
        }
        self.numrecs_dirty = false;
        Ok(())
    }

    /// Flush metadata (`nc_sync`): rewrites `numrecs` if records grew.
    pub fn sync(&mut self) -> NcResult<()> {
        if self.numrecs_dirty && self.writable {
            let nr = (self.header.numrecs.min(u32::MAX as u64 - 1)) as u32;
            self.store.write_at(4, &nr.to_be_bytes());
            self.numrecs_dirty = false;
        }
        Ok(())
    }

    /// Sync and consume the dataset, returning the storage (`nc_close`).
    pub fn close(mut self) -> NcResult<Box<dyn ByteStore>> {
        if self.mode == Mode::Define && self.writable {
            self.enddef()?;
        }
        self.sync()?;
        Ok(self.store)
    }

    // ---- define-mode functions ------------------------------------------------

    /// Define a dimension (`nc_def_dim`); length 0 = unlimited.
    pub fn def_dim(&mut self, name: &str, len: u64) -> NcResult<usize> {
        self.require_define()?;
        Ok(self.header.add_dim(name, len)?)
    }

    /// Define a variable (`nc_def_var`).
    pub fn def_var(&mut self, name: &str, nctype: NcType, dimids: &[usize]) -> NcResult<usize> {
        self.require_define()?;
        Ok(self.header.add_var(name, nctype, dimids)?)
    }

    /// Add/replace a global attribute (`nc_put_att`).
    pub fn put_gatt(&mut self, name: &str, value: AttrValue) -> NcResult<()> {
        self.require_define()?;
        Ok(self.header.put_gatt(name, value)?)
    }

    /// Add/replace a variable attribute.
    pub fn put_vatt(&mut self, varid: usize, name: &str, value: AttrValue) -> NcResult<()> {
        self.require_define()?;
        Ok(self.header.put_vatt(varid, name, value)?)
    }

    // ---- inquiry ---------------------------------------------------------------

    /// The in-memory header (all `nc_inq_*` information).
    pub fn header(&self) -> &Header {
        &self.header
    }

    /// Current file layout.
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// Variable id by name (`nc_inq_varid`).
    pub fn var_id(&self, name: &str) -> NcResult<usize> {
        self.header
            .var_id(name)
            .ok_or_else(|| NcError::NotFound(format!("variable '{name}'")))
    }

    /// Dimension id by name (`nc_inq_dimid`).
    pub fn dim_id(&self, name: &str) -> NcResult<usize> {
        self.header
            .dim_id(name)
            .ok_or_else(|| NcError::NotFound(format!("dimension '{name}'")))
    }

    /// Global attribute by name (`nc_get_att`).
    pub fn get_gatt(&self, name: &str) -> NcResult<&AttrValue> {
        self.header
            .gatts
            .iter()
            .find(|a| a.name == name)
            .map(|a| &a.value)
            .ok_or_else(|| NcError::NotFound(format!("global attribute '{name}'")))
    }

    /// Variable attribute by name.
    pub fn get_vatt(&self, varid: usize, name: &str) -> NcResult<&AttrValue> {
        self.header
            .vars
            .get(varid)
            .ok_or_else(|| NcError::NotFound(format!("variable id {varid}")))?
            .atts
            .iter()
            .find(|a| a.name == name)
            .map(|a| &a.value)
            .ok_or_else(|| NcError::NotFound(format!("attribute '{name}'")))
    }

    /// Number of records currently in the file.
    pub fn numrecs(&self) -> u64 {
        self.header.numrecs
    }

    // ---- data access --------------------------------------------------------------

    fn product(count: &[u64]) -> u64 {
        count.iter().product()
    }

    /// Write a subarray (`nc_put_vara`).
    pub fn put_vara<T: NcValue>(
        &mut self,
        varid: usize,
        start: &[u64],
        count: &[u64],
        vals: &[T],
    ) -> NcResult<()> {
        self.put_vars(varid, start, count, None, vals)
    }

    /// Write a strided subarray (`nc_put_vars`).
    pub fn put_vars<T: NcValue>(
        &mut self,
        varid: usize,
        start: &[u64],
        count: &[u64],
        stride: Option<&[u64]>,
        vals: &[T],
    ) -> NcResult<()> {
        self.require_data()?;
        self.require_writable()?;
        layout::check_access(&self.header, varid, start, count, stride, None)?;
        let n = Self::product(count);
        if n as usize != vals.len() {
            return Err(NcError::NotFound(format!(
                "value count {} does not match access size {n}",
                vals.len()
            )));
        }
        let ext = to_external(vals, self.header.vars[varid].nctype)?;
        let runs = layout::access_runs(
            &self.header,
            self.layout.recsize,
            varid,
            start,
            count,
            stride,
        );
        let mut pos = 0usize;
        for (off, len) in runs {
            self.store.write_at(off, &ext[pos..pos + len as usize]);
            pos += len as usize;
        }
        // Growing a record variable extends numrecs.
        if self.header.is_record_var(varid) && count.first().copied().unwrap_or(0) > 0 {
            let step = stride.map_or(1, |s| s[0]);
            let last = start[0] + (count[0] - 1) * step;
            if last + 1 > self.header.numrecs {
                let old = self.header.numrecs;
                self.header.numrecs = last + 1;
                self.numrecs_dirty = true;
                if self.fill_mode {
                    // netCDF fill semantics: records created by this write
                    // are prefilled across all record variables, then the
                    // written region is re-applied on top.
                    self.prefill_records(old, last + 1);
                    let runs = layout::access_runs(
                        &self.header,
                        self.layout.recsize,
                        varid,
                        start,
                        count,
                        stride,
                    );
                    let mut pos = 0usize;
                    for (off, len) in runs {
                        self.store.write_at(off, &ext[pos..pos + len as usize]);
                        pos += len as usize;
                    }
                }
            }
        }
        Ok(())
    }

    /// Read a subarray (`nc_get_vara`).
    pub fn get_vara<T: NcValue>(
        &mut self,
        varid: usize,
        start: &[u64],
        count: &[u64],
    ) -> NcResult<Vec<T>> {
        self.get_vars(varid, start, count, None)
    }

    /// Read a strided subarray (`nc_get_vars`).
    pub fn get_vars<T: NcValue>(
        &mut self,
        varid: usize,
        start: &[u64],
        count: &[u64],
        stride: Option<&[u64]>,
    ) -> NcResult<Vec<T>> {
        self.require_data()?;
        layout::check_access(
            &self.header,
            varid,
            start,
            count,
            stride,
            Some(self.header.numrecs),
        )?;
        let runs = layout::access_runs(
            &self.header,
            self.layout.recsize,
            varid,
            start,
            count,
            stride,
        );
        let total: u64 = runs.iter().map(|r| r.1).sum();
        let mut ext = vec![0u8; total as usize];
        let mut pos = 0usize;
        for (off, len) in runs {
            self.store.read_at(off, &mut ext[pos..pos + len as usize]);
            pos += len as usize;
        }
        Ok(from_external(&ext, self.header.vars[varid].nctype)?)
    }

    /// Write one element (`nc_put_var1`).
    pub fn put_var1<T: NcValue>(&mut self, varid: usize, index: &[u64], val: T) -> NcResult<()> {
        let count = vec![1u64; index.len()];
        self.put_vara(varid, index, &count, &[val])
    }

    /// Read one element (`nc_get_var1`).
    pub fn get_var1<T: NcValue>(&mut self, varid: usize, index: &[u64]) -> NcResult<T> {
        let count = vec![1u64; index.len()];
        Ok(self.get_vara::<T>(varid, index, &count)?[0])
    }

    /// Write the whole variable (`nc_put_var`). For record variables this
    /// writes the currently existing records.
    pub fn put_var<T: NcValue>(&mut self, varid: usize, vals: &[T]) -> NcResult<()> {
        let shape = self.header.var_shape(varid);
        let start = vec![0u64; shape.len()];
        // Writing a whole record variable with more data than existing
        // records grows the record dimension to fit.
        let mut count = shape;
        if self.header.is_record_var(varid) {
            let per_rec = self.header.record_elems(varid).max(1);
            count[0] = vals.len() as u64 / per_rec;
        }
        self.put_vara(varid, &start, &count, vals)
    }

    /// Read the whole variable (`nc_get_var`).
    pub fn get_var<T: NcValue>(&mut self, varid: usize) -> NcResult<Vec<T>> {
        let shape = self.header.var_shape(varid);
        let start = vec![0u64; shape.len()];
        self.get_vara(varid, &start, &shape)
    }

    /// Write a mapped strided subarray (`nc_put_varm`): `imap[d]` is the
    /// distance in *elements* between successive indices of dimension `d`
    /// in the caller's memory.
    pub fn put_varm<T: NcValue>(
        &mut self,
        varid: usize,
        start: &[u64],
        count: &[u64],
        stride: Option<&[u64]>,
        imap: &[u64],
        vals: &[T],
    ) -> NcResult<()> {
        let canonical = gather_by_imap(count, imap, vals)?;
        self.put_vars(varid, start, count, stride, &canonical)
    }

    /// Read a mapped strided subarray (`nc_get_varm`) into a buffer laid
    /// out according to `imap`. Returns the buffer, whose length is
    /// `max_mapped_index + 1`.
    pub fn get_varm<T: NcValue + Default>(
        &mut self,
        varid: usize,
        start: &[u64],
        count: &[u64],
        stride: Option<&[u64]>,
        imap: &[u64],
    ) -> NcResult<Vec<T>> {
        let canonical = self.get_vars::<T>(varid, start, count, stride)?;
        scatter_by_imap(count, imap, &canonical)
    }
}

/// Gather values from an `imap`-described memory layout into canonical
/// (row-major) order.
fn gather_by_imap<T: NcValue>(count: &[u64], imap: &[u64], vals: &[T]) -> NcResult<Vec<T>> {
    if imap.len() != count.len() {
        return Err(NcError::NotFound(format!(
            "imap has {} entries, expected {}",
            imap.len(),
            count.len()
        )));
    }
    let nd = count.len();
    if nd == 0 {
        return Ok(vals.first().copied().into_iter().collect());
    }
    let n: u64 = count.iter().product();
    let mut out = Vec::with_capacity(n as usize);
    if count.contains(&0) {
        return Ok(out);
    }
    let mut idx = vec![0u64; nd];
    loop {
        let mem: u64 = (0..nd).map(|d| idx[d] * imap[d]).sum();
        let v = vals
            .get(mem as usize)
            .copied()
            .ok_or_else(|| NcError::NotFound(format!("imap index {mem} outside value buffer")))?;
        out.push(v);
        let mut d = nd;
        loop {
            if d == 0 {
                return Ok(out);
            }
            d -= 1;
            idx[d] += 1;
            if idx[d] < count[d] {
                break;
            }
            idx[d] = 0;
        }
    }
}

/// Scatter canonical-order values into an `imap`-described layout.
fn scatter_by_imap<T: NcValue + Default>(
    count: &[u64],
    imap: &[u64],
    canonical: &[T],
) -> NcResult<Vec<T>> {
    if imap.len() != count.len() {
        return Err(NcError::NotFound(format!(
            "imap has {} entries, expected {}",
            imap.len(),
            count.len()
        )));
    }
    let nd = count.len();
    if nd == 0 {
        return Ok(canonical.to_vec());
    }
    if count.contains(&0) {
        return Ok(Vec::new());
    }
    // Size of the mapped buffer: max index + 1.
    let max_index: u64 = (0..nd).map(|d| (count[d] - 1) * imap[d]).sum();
    let mut out = vec![T::default(); (max_index + 1) as usize];
    let mut idx = vec![0u64; nd];
    let mut pos = 0usize;
    loop {
        let mem: u64 = (0..nd).map(|d| idx[d] * imap[d]).sum();
        out[mem as usize] = canonical[pos];
        pos += 1;
        let mut d = nd;
        loop {
            if d == 0 {
                return Ok(out);
            }
            d -= 1;
            idx[d] += 1;
            if idx[d] < count[d] {
                break;
            }
            idx[d] = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStore;

    fn simple_file() -> NcFile {
        let mut f = NcFile::create(MemStore::new(), Version::Cdf1);
        let z = f.def_dim("z", 2).unwrap();
        let y = f.def_dim("y", 3).unwrap();
        let x = f.def_dim("x", 4).unwrap();
        f.def_var("tt", NcType::Float, &[z, y, x]).unwrap();
        f.enddef().unwrap();
        f
    }

    #[test]
    fn create_write_read() {
        let mut f = simple_file();
        let vals: Vec<f32> = (0..24).map(|i| i as f32).collect();
        f.put_vara(0, &[0, 0, 0], &[2, 3, 4], &vals).unwrap();
        let back: Vec<f32> = f.get_vara(0, &[0, 0, 0], &[2, 3, 4]).unwrap();
        assert_eq!(back, vals);
        // Subarray read.
        let sub: Vec<f32> = f.get_vara(0, &[1, 1, 1], &[1, 2, 2]).unwrap();
        assert_eq!(sub, vec![17.0, 18.0, 21.0, 22.0]);
    }

    #[test]
    fn reopen_from_bytes() {
        let mut f = simple_file();
        let vals: Vec<f32> = (0..24).map(|i| i as f32 * 0.5).collect();
        f.put_vara(0, &[0, 0, 0], &[2, 3, 4], &vals).unwrap();
        let store = f.close().unwrap();
        let _ = store; // MemStore consumed through the trait object
    }

    #[test]
    fn mode_enforcement() {
        let mut f = NcFile::create(MemStore::new(), Version::Cdf1);
        let d = f.def_dim("x", 4).unwrap();
        let v = f.def_var("a", NcType::Int, &[d]).unwrap();
        assert!(matches!(
            f.put_vara::<i32>(v, &[0], &[4], &[1, 2, 3, 4]),
            Err(NcError::InDefineMode)
        ));
        f.enddef().unwrap();
        assert!(matches!(f.def_dim("y", 2), Err(NcError::NotInDefineMode)));
        f.put_vara::<i32>(v, &[0], &[4], &[1, 2, 3, 4]).unwrap();
    }

    #[test]
    fn var1_and_whole_var() {
        let mut f = simple_file();
        f.put_var1(0, &[1, 2, 3], 42.5f32).unwrap();
        assert_eq!(f.get_var1::<f32>(0, &[1, 2, 3]).unwrap(), 42.5);
        let whole: Vec<f32> = f.get_var(0).unwrap();
        assert_eq!(whole.len(), 24);
        assert_eq!(whole[23], 42.5);
    }

    #[test]
    fn record_variable_growth() {
        let mut f = NcFile::create(MemStore::new(), Version::Cdf1);
        let t = f.def_dim("time", 0).unwrap();
        let x = f.def_dim("x", 3).unwrap();
        let v = f.def_var("ts", NcType::Double, &[t, x]).unwrap();
        f.enddef().unwrap();
        assert_eq!(f.numrecs(), 0);
        for rec in 0..5u64 {
            let vals: Vec<f64> = (0..3).map(|i| (rec * 3 + i) as f64).collect();
            f.put_vara(v, &[rec, 0], &[1, 3], &vals).unwrap();
        }
        assert_eq!(f.numrecs(), 5);
        let rec3: Vec<f64> = f.get_vara(v, &[3, 0], &[1, 3]).unwrap();
        assert_eq!(rec3, vec![9.0, 10.0, 11.0]);
        // Reading past numrecs fails.
        assert!(f.get_vara::<f64>(v, &[5, 0], &[1, 3]).is_err());
    }

    #[test]
    fn strided_and_mapped_access() {
        let mut f = simple_file();
        let vals: Vec<f32> = (0..24).map(|i| i as f32).collect();
        f.put_vara(0, &[0, 0, 0], &[2, 3, 4], &vals).unwrap();

        // Every other x.
        let strided: Vec<f32> = f
            .get_vars(0, &[0, 0, 0], &[1, 1, 2], Some(&[1, 1, 2]))
            .unwrap();
        assert_eq!(strided, vec![0.0, 2.0]);

        // Mapped write: transpose a 2x3 block into y-major memory.
        let mut g = simple_file();
        // Memory holds [y][z] (imap: z stride 1, y stride 2) for z=2,y=3.
        let mem: Vec<f32> = vec![
            0.0, 12.0, // y=0: z=0,1
            4.0, 16.0, // y=1
            8.0, 20.0, // y=2
        ];
        g.put_varm(0, &[0, 0, 0], &[2, 3, 1], None, &[1, 2, 0], &mem)
            .unwrap();
        assert_eq!(g.get_var1::<f32>(0, &[0, 1, 0]).unwrap(), 4.0);
        assert_eq!(g.get_var1::<f32>(0, &[1, 2, 0]).unwrap(), 20.0);
    }

    #[test]
    fn attributes_roundtrip() {
        let mut f = NcFile::create(MemStore::new(), Version::Cdf1);
        let d = f.def_dim("x", 2).unwrap();
        let v = f.def_var("a", NcType::Short, &[d]).unwrap();
        f.put_gatt("title", AttrValue::Char("hello".into()))
            .unwrap();
        f.put_vatt(v, "valid_range", AttrValue::Short(vec![0, 100]))
            .unwrap();
        f.enddef().unwrap();
        assert_eq!(
            f.get_gatt("title").unwrap(),
            &AttrValue::Char("hello".into())
        );
        assert_eq!(
            f.get_vatt(v, "valid_range").unwrap(),
            &AttrValue::Short(vec![0, 100])
        );
        assert!(f.get_gatt("missing").is_err());
    }

    #[test]
    fn type_conversion_on_access() {
        let mut f = NcFile::create(MemStore::new(), Version::Cdf1);
        let d = f.def_dim("x", 3).unwrap();
        let v = f.def_var("a", NcType::Short, &[d]).unwrap();
        f.enddef().unwrap();
        // Write i32 into a short variable (in range).
        f.put_vara::<i32>(v, &[0], &[3], &[1, -2, 300]).unwrap();
        let back: Vec<f64> = f.get_vara(v, &[0], &[3]).unwrap();
        assert_eq!(back, vec![1.0, -2.0, 300.0]);
        // Out of range errors.
        assert!(f.put_vara::<i32>(v, &[0], &[1], &[70000]).is_err());
    }

    #[test]
    fn redef_relocates_data() {
        let mut f = NcFile::create(MemStore::new(), Version::Cdf1);
        let x = f.def_dim("x", 4).unwrap();
        let v = f.def_var("a", NcType::Int, &[x]).unwrap();
        f.enddef().unwrap();
        f.put_vara::<i32>(v, &[0], &[4], &[10, 20, 30, 40]).unwrap();

        // Add a long-named dimension + variable so the header grows and
        // data must move.
        f.redef().unwrap();
        let y = f.def_dim("a_dimension_with_a_rather_long_name", 8).unwrap();
        let w = f
            .def_var("another_variable_name", NcType::Double, &[y])
            .unwrap();
        f.enddef().unwrap();

        let back: Vec<i32> = f.get_vara(v, &[0], &[4]).unwrap();
        assert_eq!(back, vec![10, 20, 30, 40]);
        f.put_vara::<f64>(w, &[0], &[1], &[3.5]).unwrap();
        assert_eq!(f.get_var1::<f64>(w, &[0]).unwrap(), 3.5);
    }

    #[test]
    fn readonly_blocks_writes() {
        let mut f = simple_file();
        f.put_vara::<f32>(0, &[0, 0, 0], &[1, 1, 1], &[5.0])
            .unwrap();
        // Round-trip through bytes into a read-only open.
        let _store = f.close().unwrap();
        // (We cannot recover the MemStore through the trait object; create
        // a fresh read-only file instead.)
        let mut g = simple_file();
        g.writable = false;
        assert!(matches!(
            g.put_vara::<f32>(0, &[0, 0, 0], &[1, 1, 1], &[5.0]),
            Err(NcError::ReadOnly)
        ));
    }

    #[test]
    fn value_count_mismatch_rejected() {
        let mut f = simple_file();
        assert!(f
            .put_vara::<f32>(0, &[0, 0, 0], &[2, 3, 4], &[0.0; 23])
            .is_err());
    }
}

//! MPI-IO hint handling (the ROMIO hint set).
//!
//! Hints arrive in an [`pnetcdf_mpi::Info`] at open time. We implement the
//! subset that controls the two optimizations the paper leans on — two-phase
//! collective buffering (`cb_*`, `romio_cb_*`) and data sieving
//! (`ind_*_buffer_size`, `romio_ds_*`) — with ROMIO's defaults.

use pnetcdf_mpi::Info;

/// Tri-state toggle used by `romio_cb_write` etc.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Toggle {
    Enable,
    Disable,
    /// Let the implementation decide (ROMIO's "automatic").
    Auto,
}

impl Toggle {
    fn parse(s: &str) -> Toggle {
        match s {
            "enable" | "true" => Toggle::Enable,
            "disable" | "false" => Toggle::Disable,
            _ => Toggle::Auto,
        }
    }

    /// Resolve with the given default for `Auto`.
    pub fn resolve(self, auto_default: bool) -> bool {
        match self {
            Toggle::Enable => true,
            Toggle::Disable => false,
            Toggle::Auto => auto_default,
        }
    }
}

/// Parsed hints, with ROMIO-era defaults.
#[derive(Clone, Debug)]
pub struct Hints {
    /// Collective buffering buffer size per aggregator (`cb_buffer_size`).
    pub cb_buffer_size: usize,
    /// Number of aggregator ranks (`cb_nodes`), at most the communicator
    /// size; `None` = one per I/O server whatever the collective's size
    /// (`twophase::TwoPhaseParams::naggs`). A write has at most one per
    /// server.
    pub cb_nodes: Option<usize>,
    /// Enable two-phase on collective writes (`romio_cb_write`).
    pub cb_write: Toggle,
    /// Enable two-phase on collective reads (`romio_cb_read`).
    pub cb_read: Toggle,
    /// Pipeline the two-phase rounds (`pnc_cb_pipeline`): with double
    /// collective buffers per aggregator, round `j+1`'s data exchange
    /// overlaps round `j`'s disk access. Default: enabled (`Auto` resolves
    /// to on); `disable` reproduces the serial exchange-then-access timing
    /// for A/B comparisons.
    pub cb_pipeline: Toggle,
    /// Data-sieving buffer for independent reads (`ind_rd_buffer_size`).
    pub ind_rd_buffer_size: usize,
    /// Data-sieving buffer for independent writes (`ind_wr_buffer_size`).
    pub ind_wr_buffer_size: usize,
    /// Enable data sieving on independent writes (`romio_ds_write`).
    pub ds_write: Toggle,
    /// Enable data sieving on independent reads (`romio_ds_read`).
    pub ds_read: Toggle,
    /// Enable the client-side page cache (`pnc_cache`). Default: disabled
    /// (`Auto` resolves to off so uncached timings stay comparable).
    pub cache: Toggle,
    /// Page-cache byte budget (`pnc_cache_size`); a page is one stripe.
    pub cache_size: usize,
}

impl Default for Hints {
    fn default() -> Hints {
        Hints {
            cb_buffer_size: 4 * 1024 * 1024,
            cb_nodes: None,
            cb_write: Toggle::Auto,
            cb_read: Toggle::Auto,
            cb_pipeline: Toggle::Auto,
            ind_rd_buffer_size: 4 * 1024 * 1024,
            ind_wr_buffer_size: 512 * 1024,
            ds_write: Toggle::Auto,
            ds_read: Toggle::Auto,
            cache: Toggle::Auto,
            cache_size: 8 * 1024 * 1024,
        }
    }
}

/// How a hint's value is parsed, and where it goes.
enum Kind {
    /// A tri-state toggle word; anything unrecognized means `Auto`.
    Toggle(fn(&mut Hints) -> &mut Toggle),
    /// A size or count where zero is meaningless (a zero-sized buffer, zero
    /// aggregators): zero is rejected like an unparseable number.
    Positive(fn(&mut Hints, usize)),
}

/// Every hint key this implementation consumes. Keys outside this table are
/// ignored per the MPI standard — except unknown `pnc_`-prefixed keys, which
/// the audit flags (they were addressed at *this* library and can only be a
/// misspelling).
const HINT_TABLE: &[(&str, Kind)] = &[
    (
        "cb_buffer_size",
        Kind::Positive(|h, v| h.cb_buffer_size = v),
    ),
    ("cb_nodes", Kind::Positive(|h, v| h.cb_nodes = Some(v))),
    ("romio_cb_write", Kind::Toggle(|h| &mut h.cb_write)),
    ("romio_cb_read", Kind::Toggle(|h| &mut h.cb_read)),
    ("pnc_cb_pipeline", Kind::Toggle(|h| &mut h.cb_pipeline)),
    (
        "ind_rd_buffer_size",
        Kind::Positive(|h, v| h.ind_rd_buffer_size = v),
    ),
    (
        "ind_wr_buffer_size",
        Kind::Positive(|h, v| h.ind_wr_buffer_size = v),
    ),
    ("romio_ds_write", Kind::Toggle(|h| &mut h.ds_write)),
    ("romio_ds_read", Kind::Toggle(|h| &mut h.ds_read)),
    ("pnc_cache", Kind::Toggle(|h| &mut h.cache)),
    ("pnc_cache_size", Kind::Positive(|h, v| h.cache_size = v)),
];

/// Is `v` a well-formed value for the tri-state toggles?
fn valid_toggle(v: &str) -> bool {
    matches!(
        v,
        "enable" | "disable" | "true" | "false" | "automatic" | "auto"
    )
}

impl Hints {
    /// Parse hints from an info object and audit it: returns the parsed
    /// hints plus a human-readable description of every rejected entry.
    /// Rejected means an unknown `pnc_*` key, or a known key whose value is
    /// malformed (unparseable number, zero where zero is meaningless,
    /// unrecognized toggle word). A bad value never changes behavior: it
    /// falls back to the default.
    pub fn from_info(info: &Info) -> (Hints, Vec<String>) {
        let mut hints = Hints::default();
        let mut rejected = Vec::new();
        // Info iterates a BTreeMap, so the audit order is deterministic.
        for (k, v) in info.iter() {
            let Some((_, kind)) = HINT_TABLE.iter().find(|(key, _)| *key == k) else {
                if k.starts_with("pnc_") {
                    rejected.push(format!("{k}={v} (unknown pnc_ hint)"));
                }
                continue;
            };
            let number = v.trim().parse::<usize>().ok();
            let ok = match kind {
                Kind::Toggle(slot) => {
                    *slot(&mut hints) = Toggle::parse(v);
                    valid_toggle(v)
                }
                Kind::Positive(set) => number
                    .filter(|&n| n > 0)
                    .map(|n| set(&mut hints, n))
                    .is_some(),
            };
            if !ok {
                rejected.push(format!("{k}={v} (malformed value)"));
            }
        }
        (hints, rejected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_without_hints() {
        let h = Hints::from_info(&Info::new()).0;
        assert_eq!(h.cb_buffer_size, 4 * 1024 * 1024);
        assert_eq!(h.cb_nodes, None);
        assert_eq!(h.cb_write, Toggle::Auto);
        assert!(h.cb_write.resolve(true));
        assert!(!h.cb_write.resolve(false));
        // Pipelining defaults on.
        assert_eq!(h.cb_pipeline, Toggle::Auto);
        assert!(h.cb_pipeline.resolve(true));
    }

    #[test]
    fn pipeline_hint_parses() {
        let h = Hints::from_info(&Info::new().with("pnc_cb_pipeline", "disable")).0;
        assert_eq!(h.cb_pipeline, Toggle::Disable);
        assert!(!h.cb_pipeline.resolve(true));
        let h = Hints::from_info(&Info::new().with("pnc_cb_pipeline", "enable")).0;
        assert_eq!(h.cb_pipeline, Toggle::Enable);
    }

    #[test]
    fn parses_romio_hints() {
        let info = Info::new()
            .with("cb_buffer_size", "1048576")
            .with("cb_nodes", "3")
            .with("romio_cb_write", "disable")
            .with("romio_ds_read", "enable");
        let h = Hints::from_info(&info).0;
        assert_eq!(h.cb_buffer_size, 1048576);
        assert_eq!(h.cb_nodes, Some(3));
        assert_eq!(h.cb_write, Toggle::Disable);
        assert!(!h.cb_write.resolve(true));
        assert_eq!(h.ds_read, Toggle::Enable);
    }

    #[test]
    fn invalid_hints_fall_back() {
        let info = Info::new()
            .with("cb_buffer_size", "zero")
            .with("cb_nodes", "0");
        let h = Hints::from_info(&info).0;
        assert_eq!(h.cb_buffer_size, 4 * 1024 * 1024);
        assert_eq!(h.cb_nodes, None);
    }

    #[test]
    fn cache_hints() {
        let d = Hints::from_info(&Info::new()).0;
        assert_eq!(d.cache, Toggle::Auto);
        assert!(!d.cache.resolve(false), "cache defaults off");
        assert_eq!(d.cache_size, 8 * 1024 * 1024);
        let info = Info::new()
            .with("pnc_cache", "enable")
            .with("pnc_cache_size", "65536");
        let h = Hints::from_info(&info).0;
        assert!(h.cache.resolve(false));
        assert_eq!(h.cache_size, 65536);
    }

    /// Every key the table consumes, in order: adding or removing a hint is
    /// a visible diff here. Platform properties (queue depth, parity, span
    /// recording) are `SimConfig` fields, not hints; the page is the
    /// stripe, readahead two pages and write domains server-affine, none a
    /// hint either.
    #[test]
    fn the_table_holds_eleven_keys() {
        let keys: Vec<&str> = HINT_TABLE.iter().map(|(k, _)| *k).collect();
        assert_eq!(
            keys,
            [
                "cb_buffer_size",
                "cb_nodes",
                "romio_cb_write",
                "romio_cb_read",
                "pnc_cb_pipeline",
                "ind_rd_buffer_size",
                "ind_wr_buffer_size",
                "romio_ds_write",
                "romio_ds_read",
                "pnc_cache",
                "pnc_cache_size",
            ]
        );
    }

    #[test]
    fn audit_flags_unknown_pnc_and_malformed_values() {
        let info = Info::new()
            .with("pnc_cachesize", "65536") // misspelled pnc_ key
            .with("cb_buffer_size", "zero") // unparseable number
            .with("cb_nodes", "0") // zero aggregators
            .with("pnc_cache", "yes") // bad toggle word
            .with("pnc_parity", "enable") // a platform property, not a hint
            .with("pnc_page_size", "4096") // removed: a page is one stripe
            .with("pnc_readahead", "0") // removed: readahead is two pages
            .with("pnc_cb_affinity", "disable") // removed: writes are affine
            .with("striping_factor", "4") // foreign hint: silently ignored
            .with("romio_ds_read", "enable"); // well-formed: accepted
        let (h, rejected) = Hints::from_info(&info);
        assert_eq!(
            rejected,
            vec![
                "cb_buffer_size=zero (malformed value)",
                "cb_nodes=0 (malformed value)",
                "pnc_cache=yes (malformed value)",
                "pnc_cachesize=65536 (unknown pnc_ hint)",
                "pnc_cb_affinity=disable (unknown pnc_ hint)",
                "pnc_page_size=4096 (unknown pnc_ hint)",
                "pnc_parity=enable (unknown pnc_ hint)",
                "pnc_readahead=0 (unknown pnc_ hint)",
            ]
        );
        // Rejects never change behavior: they fall back to the defaults.
        assert_eq!(h.cb_buffer_size, 4 * 1024 * 1024);
        assert_eq!(h.cb_nodes, None);
        assert_eq!(h.cache, Toggle::Auto);
        assert_eq!(h.ds_read, Toggle::Enable);
        let (accepted, _) = Hints::from_info(&Info::new().with("romio_ds_read", "enable"));
        assert_eq!(
            format!("{h:?}"),
            format!("{accepted:?}"),
            "a reject changed a hint"
        );
    }

    #[test]
    fn audit_accepts_clean_info() {
        let info = Info::new()
            .with("pnc_cache_size", "65536")
            .with("romio_cb_write", "automatic");
        let (_, rejected) = Hints::from_info(&info);
        assert!(rejected.is_empty(), "got rejects: {rejected:?}");
    }
}

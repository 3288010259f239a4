//! The streaming delta log: epoch-stamped appends over a [`Dataset`],
//! with an optional durable, replayable on-disk record.
//!
//! Production reference data is never frozen: rows keep arriving.
//! [`DeltaOp`] is the unit of that change, [`DeltaLog`] the ordered
//! history. The maintained reference only grows, so every op is an
//! append. Epochs are 1-based op counts: the dataset "at epoch `e`" is
//! the base dataset with the first `e` ops applied, so any two
//! maintainers that have consumed the same epoch agree on the exact row
//! layout (each append goes at the end, and no row ever moves).
//!
//! The on-disk format reuses [`binio`]: a header (magic, version, the
//! epoch the log starts after, the schema) followed by one record per
//! op, flushed per batch. Replay tolerates a torn tail record (a crash
//! mid-append, which leaves a record that runs past the end of the
//! file): the partial record is dropped and the file truncated back to
//! the last whole op, so `artifact ⊕ log` always reconstructs a
//! consistent state. Any other undecodable record is corruption: opening
//! fails and the file is left as it was. [`DeltaLog::compact_through`]
//! drops ops that have been baked into a refitted artifact, keeping the
//! log bounded.

use crate::binio;
use crate::dataset::Dataset;
use crate::schema::Schema;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// Log file magic (8 bytes).
const MAGIC: &[u8; 8] = b"HOLODLTA";
/// Current log format version.
const FORMAT_VERSION: u32 = 1;
/// Record tag of [`DeltaOp::Append`], the only op.
const APPEND_TAG: u8 = 0;

/// One mutation of a dataset. The maintained reference only grows, so
/// appending a tuple is the only op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaOp {
    /// Append a tuple at the end (its row index is the pre-op
    /// `n_tuples`). Values are in schema order.
    Append {
        /// The new tuple's values, in schema order.
        values: Vec<String>,
    },
}

/// Why a [`DeltaOp`] cannot be applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaError {
    /// An append's arity does not match the schema.
    ArityMismatch {
        /// Values supplied.
        got: usize,
        /// Schema arity.
        want: usize,
    },
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let DeltaError::ArityMismatch { got, want } = self;
        write!(f, "append arity {got} does not match schema arity {want}")
    }
}

impl std::error::Error for DeltaError {}

impl Dataset {
    /// Validate and apply one delta op in place.
    pub fn apply_delta(&mut self, op: &DeltaOp) -> Result<(), DeltaError> {
        let DeltaOp::Append { values } = op;
        if values.len() != self.n_attrs() {
            return Err(DeltaError::ArityMismatch {
                got: values.len(),
                want: self.n_attrs(),
            });
        }
        self.push_row(values);
        Ok(())
    }
}

/// The ordered, epoch-stamped history of deltas over one dataset, with
/// an optional durable file behind it.
///
/// Epoch `base_epoch() + i + 1` is the state after op `i` of
/// [`DeltaLog::ops`]; [`DeltaLog::epoch`] is the current (latest) epoch.
pub struct DeltaLog {
    schema: Schema,
    base_epoch: u64,
    ops: Vec<DeltaOp>,
    file: Option<File>,
    path: Option<PathBuf>,
}

impl fmt::Debug for DeltaLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DeltaLog")
            .field("schema", &self.schema)
            .field("base_epoch", &self.base_epoch)
            .field("ops", &self.ops.len())
            .field("path", &self.path)
            .finish()
    }
}

impl DeltaLog {
    /// A volatile log (no file behind it) starting at epoch 0.
    pub fn in_memory(schema: Schema) -> Self {
        DeltaLog {
            schema,
            base_epoch: 0,
            ops: Vec::new(),
            file: None,
            path: None,
        }
    }

    /// Open (or create) a durable log at `path` for datasets of
    /// `schema`. An existing file is replayed into memory; a torn tail
    /// record (one that runs past the end of the file: a crash
    /// mid-append) is dropped and the file truncated back to the last
    /// whole op. The file's schema must match.
    ///
    /// # Errors
    /// `InvalidData`, naming the record's byte offset, for a record that
    /// cannot be decoded for any other reason (an unknown tag, invalid
    /// UTF-8). The file is then left untouched.
    pub fn open(path: &Path, schema: Schema) -> io::Result<DeltaLog> {
        if !path.exists() {
            let mut file = File::create(path)?;
            write_header(&mut file, 0, &schema)?;
            file.flush()?;
            let file = OpenOptions::new().append(true).open(path)?;
            return Ok(DeltaLog {
                schema,
                base_epoch: 0,
                ops: Vec::new(),
                file: Some(file),
                path: Some(path.to_path_buf()),
            });
        }
        let bytes = std::fs::read(path)?;
        let mut r = io::Cursor::new(bytes.as_slice());
        let (base_epoch, file_schema) = read_header(&mut r)?;
        if file_schema != schema {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("delta log schema {file_schema} does not match dataset schema {schema}"),
            ));
        }
        let mut ops = Vec::new();
        let mut good = r.position();
        loop {
            match read_op(&mut r) {
                Ok(Some(op)) => {
                    ops.push(op);
                    good = r.position();
                }
                Ok(None) => break,
                // A torn tail: keep the whole ops, drop the fragment.
                Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => break,
                Err(e) => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("delta log {}: record at byte {good}: {e}", path.display()),
                    ))
                }
            }
        }
        if (good as usize) < bytes.len() {
            let f = OpenOptions::new().write(true).open(path)?;
            f.set_len(good)?;
        }
        let file = OpenOptions::new().append(true).open(path)?;
        Ok(DeltaLog {
            schema,
            base_epoch,
            ops,
            file: Some(file),
            path: Some(path.to_path_buf()),
        })
    }

    /// The schema ops are validated against.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The epoch this log starts after (ops before it were compacted
    /// into an artifact).
    pub fn base_epoch(&self) -> u64 {
        self.base_epoch
    }

    /// The current (latest) epoch: `base_epoch + ops.len()`.
    pub fn epoch(&self) -> u64 {
        self.base_epoch + self.ops.len() as u64
    }

    /// The retained ops, oldest first (op `i` produces epoch
    /// `base_epoch + i + 1`).
    pub fn ops(&self) -> &[DeltaOp] {
        &self.ops
    }

    /// The ops with epoch strictly greater than `epoch` (the tail a
    /// state at `epoch` must replay to catch up).
    ///
    /// # Panics
    /// Panics if `epoch` predates the compaction horizon — those ops
    /// are gone and silently returning a partial tail would corrupt the
    /// caller's state.
    pub fn ops_after(&self, epoch: u64) -> &[DeltaOp] {
        assert!(
            epoch >= self.base_epoch,
            "epoch {epoch} predates the log's compaction horizon {}",
            self.base_epoch
        );
        let skip = (epoch - self.base_epoch) as usize;
        self.ops.get(skip..).unwrap_or(&[])
    }

    /// Check `op`'s arity against the schema and append it, durably
    /// when the log has a file. Returns the new epoch. Call
    /// [`DeltaLog::flush`] after a batch.
    pub fn append(&mut self, op: DeltaOp) -> io::Result<u64> {
        let DeltaOp::Append { values } = &op;
        if values.len() != self.schema.len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                DeltaError::ArityMismatch {
                    got: values.len(),
                    want: self.schema.len(),
                }
                .to_string(),
            ));
        }
        if let Some(f) = &mut self.file {
            write_op(f, &op)?;
        }
        self.ops.push(op);
        Ok(self.epoch())
    }

    /// Flush buffered records to disk (group commit for a batch of
    /// [`DeltaLog::append`] calls). A no-op for in-memory logs.
    pub fn flush(&mut self) -> io::Result<()> {
        match &mut self.file {
            Some(f) => f.flush().and_then(|()| f.sync_data()),
            None => Ok(()),
        }
    }

    /// Drop every op at or before `epoch` (they are baked into a saved
    /// artifact) and advance the compaction horizon. Durable logs are
    /// rewritten atomically (temp file + rename).
    pub fn compact_through(&mut self, epoch: u64) -> io::Result<()> {
        if epoch <= self.base_epoch {
            return Ok(());
        }
        assert!(
            epoch <= self.epoch(),
            "cannot compact through future epoch {epoch} (at {})",
            self.epoch()
        );
        let drop_n = (epoch - self.base_epoch) as usize;
        self.ops.drain(..drop_n);
        self.base_epoch = epoch;
        if let Some(path) = &self.path {
            let tmp = path.with_extension("dlog.tmp");
            {
                let mut f = File::create(&tmp)?;
                write_header(&mut f, self.base_epoch, &self.schema)?;
                for op in &self.ops {
                    write_op(&mut f, op)?;
                }
                f.flush()?;
                f.sync_data()?;
            }
            std::fs::rename(&tmp, path)?;
            self.file = Some(OpenOptions::new().append(true).open(path)?);
        }
        Ok(())
    }

    /// Replay onto `d` every op after `from_epoch` (typically
    /// [`DeltaLog::base_epoch`] for a freshly loaded artifact).
    pub fn replay_onto(&self, d: &mut Dataset, from_epoch: u64) -> Result<(), DeltaError> {
        for op in self.ops_after(from_epoch) {
            d.apply_delta(op)?;
        }
        Ok(())
    }
}

fn write_header<W: Write>(w: &mut W, base_epoch: u64, schema: &Schema) -> io::Result<()> {
    w.write_all(MAGIC)?;
    binio::write_u32(w, FORMAT_VERSION)?;
    binio::write_u64(w, base_epoch)?;
    binio::write_usize(w, schema.len())?;
    for name in schema.names() {
        binio::write_str(w, name)?;
    }
    Ok(())
}

fn read_header<R: Read>(r: &mut R) -> io::Result<(u64, Schema)> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not a HoloDetect delta log",
        ));
    }
    let version = binio::read_u32(r)?;
    if version != FORMAT_VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unsupported delta log version {version}"),
        ));
    }
    let base_epoch = binio::read_u64(r)?;
    let na = binio::read_usize(r)?;
    let mut names = Vec::with_capacity(binio::bounded_cap(na, 24));
    for _ in 0..na {
        names.push(binio::read_str(r)?);
    }
    Ok((base_epoch, Schema::new(names)))
}

fn write_op<W: Write>(w: &mut W, op: &DeltaOp) -> io::Result<()> {
    let DeltaOp::Append { values } = op;
    binio::write_u8(w, APPEND_TAG)?;
    binio::write_usize(w, values.len())?;
    for v in values {
        binio::write_str(w, v)?;
    }
    Ok(())
}

/// Read one op; `Ok(None)` at a clean end-of-stream. A record that runs
/// past the end of the data fails with `UnexpectedEof` (a torn tail);
/// every other failure, any tag but [`APPEND_TAG`] included, is
/// corruption.
fn read_op(r: &mut io::Cursor<&[u8]>) -> io::Result<Option<DeltaOp>> {
    if r.position() as usize >= r.get_ref().len() {
        return Ok(None);
    }
    let tag = binio::read_u8(r)?;
    if tag != APPEND_TAG {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("bad delta op tag {tag}"),
        ));
    }
    let n = binio::read_usize(r)?;
    let mut values = Vec::with_capacity(binio::bounded_cap(n, 24));
    for _ in 0..n {
        values.push(binio::read_str(r)?);
    }
    Ok(Some(DeltaOp::Append { values }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetBuilder;

    fn schema() -> Schema {
        Schema::new(["Zip", "City"])
    }

    fn base() -> Dataset {
        let mut b = DatasetBuilder::new(schema());
        b.push_row(&["60612", "Chicago"]);
        b.push_row(&["53703", "Madison"]);
        b.build()
    }

    fn append(zip: &str, city: &str) -> DeltaOp {
        DeltaOp::Append {
            values: vec![zip.into(), city.into()],
        }
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "holo-delta-{}-{:?}-{name}.dlog",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    #[test]
    fn apply_delta_mutates_like_its_op_says() {
        let mut d = base();
        d.apply_delta(&append("60614", "Chicago")).unwrap();
        d.apply_delta(&append("60612", "Cicago")).unwrap();
        assert_eq!(d.n_tuples(), 4);
        assert_eq!(d.tuple_values(0), vec!["60612", "Chicago"]);
        assert_eq!(d.tuple_values(2), vec!["60614", "Chicago"]);
        assert_eq!(d.tuple_values(3), vec!["60612", "Cicago"]);
    }

    #[test]
    fn apply_delta_rejects_bad_ops() {
        let mut d = base();
        assert!(matches!(
            d.apply_delta(&DeltaOp::Append {
                values: vec!["one".into()]
            }),
            Err(DeltaError::ArityMismatch { got: 1, want: 2 })
        ));
        // Nothing was half-applied.
        assert_eq!(d.n_tuples(), 2);
    }

    #[test]
    fn in_memory_log_epochs_and_replay() {
        let mut log = DeltaLog::in_memory(schema());
        assert_eq!(log.epoch(), 0);
        let e1 = log.append(append("1", "a")).unwrap();
        let e2 = log.append(append("2", "b")).unwrap();
        assert_eq!((e1, e2), (1, 2));
        assert_eq!(log.ops_after(1).len(), 1);
        assert_eq!(log.ops_after(2).len(), 0);

        let mut d = base();
        log.replay_onto(&mut d, 0).unwrap();
        assert_eq!(d.n_tuples(), 4);
        assert_eq!(d.tuple_values(2), vec!["1", "a"]);
        assert_eq!(d.tuple_values(3), vec!["2", "b"]);
    }

    #[test]
    fn log_rejects_schema_invalid_ops() {
        let mut log = DeltaLog::in_memory(schema());
        assert!(log
            .append(DeltaOp::Append {
                values: vec!["just one".into()]
            })
            .is_err());
        assert_eq!(log.epoch(), 0);
    }

    #[test]
    fn durable_log_survives_reopen() {
        let path = tmp("reopen");
        std::fs::remove_file(&path).ok();
        {
            let mut log = DeltaLog::open(&path, schema()).unwrap();
            log.append(append("60614", "Chicago")).unwrap();
            log.append(append("60612", "Cicago")).unwrap();
            log.flush().unwrap();
        }
        let log = DeltaLog::open(&path, schema()).unwrap();
        assert_eq!(log.epoch(), 2);
        assert_eq!(log.base_epoch(), 0);
        let mut d = base();
        log.replay_onto(&mut d, 0).unwrap();
        assert_eq!(d.n_tuples(), 4);
        assert_eq!(d.value(3, 1), "Cicago");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_record_is_dropped_and_truncated() {
        let path = tmp("torn");
        std::fs::remove_file(&path).ok();
        {
            let mut log = DeltaLog::open(&path, schema()).unwrap();
            log.append(append("60614", "Chicago")).unwrap();
            log.flush().unwrap();
        }
        // Simulate a crash mid-append: half a record at the tail.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[APPEND_TAG, 2, 0, 0]).unwrap(); // tag + partial arity
        }
        let mut log = DeltaLog::open(&path, schema()).unwrap();
        assert_eq!(log.epoch(), 1, "torn record must not count");
        // The file was truncated: appending and reopening stays clean.
        log.append(append("53703", "Madison")).unwrap();
        log.flush().unwrap();
        drop(log);
        let log = DeltaLog::open(&path, schema()).unwrap();
        assert_eq!(log.epoch(), 2);
        assert_eq!(log.ops()[1], append("53703", "Madison"));
        std::fs::remove_file(&path).ok();
    }

    /// Open `path`, expecting corruption: an `InvalidData` error that
    /// names `offset`, with the file's bytes left exactly as they were.
    fn assert_rejected_untouched(path: &Path, offset: usize) {
        let before = std::fs::read(path).unwrap();
        let err = DeltaLog::open(path, schema()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains(&format!("byte {offset}")), "{err}");
        assert_eq!(std::fs::read(path).unwrap(), before, "file was modified");
    }

    #[test]
    fn a_corrupt_record_is_an_error_not_a_torn_tail() {
        // Three committed appends; the second record's tag is flipped.
        let path = tmp("corrupt");
        std::fs::remove_file(&path).ok();
        let second = {
            let mut log = DeltaLog::open(&path, schema()).unwrap();
            log.append(append("60614", "Chicago")).unwrap();
            log.flush().unwrap();
            let second = std::fs::metadata(&path).unwrap().len() as usize;
            log.append(append("53703", "Madison")).unwrap();
            log.append(append("10001", "NYC")).unwrap();
            log.flush().unwrap();
            second
        };
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[second] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        // The two committed rows behind it must not be destroyed.
        assert_rejected_untouched(&path, second);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn update_and_delete_tags_are_rejected_with_the_file_unchanged() {
        // The records the log's earlier update (tag 1: tuple, attr,
        // value) and delete (tag 2: tuple) ops wrote.
        let mut update = vec![1];
        binio::write_usize(&mut update, 0).unwrap();
        binio::write_usize(&mut update, 1).unwrap();
        binio::write_str(&mut update, "Cicago").unwrap();
        let mut delete = vec![2];
        binio::write_usize(&mut delete, 0).unwrap();
        for (name, record) in [("update", update), ("delete", delete)] {
            let path = tmp(name);
            std::fs::remove_file(&path).ok();
            {
                let mut log = DeltaLog::open(&path, schema()).unwrap();
                log.append(append("60614", "Chicago")).unwrap();
                log.flush().unwrap();
            }
            let offset = std::fs::metadata(&path).unwrap().len() as usize;
            {
                let mut f = OpenOptions::new().append(true).open(&path).unwrap();
                f.write_all(&record).unwrap();
            }
            assert_rejected_untouched(&path, offset);
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn schema_mismatch_on_open_is_an_error() {
        let path = tmp("schema");
        std::fs::remove_file(&path).ok();
        drop(DeltaLog::open(&path, schema()).unwrap());
        assert!(DeltaLog::open(&path, Schema::new(["Other"])).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compaction_drops_baked_ops_and_survives_reopen() {
        let path = tmp("compact");
        std::fs::remove_file(&path).ok();
        {
            let mut log = DeltaLog::open(&path, schema()).unwrap();
            for i in 0..5 {
                log.append(append(&format!("zip{i}"), &format!("city{i}")))
                    .unwrap();
            }
            log.flush().unwrap();
            log.compact_through(3).unwrap();
            assert_eq!(log.base_epoch(), 3);
            assert_eq!(log.epoch(), 5);
            assert_eq!(log.ops().len(), 2);
            // Appends after compaction land after the retained tail.
            log.append(append("zip5", "city5")).unwrap();
            log.flush().unwrap();
        }
        let log = DeltaLog::open(&path, schema()).unwrap();
        assert_eq!(log.base_epoch(), 3);
        assert_eq!(log.epoch(), 6);
        assert_eq!(log.ops().len(), 3);
        assert_eq!(log.ops()[2], append("zip5", "city5"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    #[should_panic(expected = "compaction horizon")]
    fn ops_after_before_horizon_panics() {
        let mut log = DeltaLog::in_memory(schema());
        for i in 0..3 {
            log.append(append(&format!("z{i}"), &format!("c{i}")))
                .unwrap();
        }
        log.compact_through(2).unwrap();
        log.ops_after(1);
    }
}

#[cfg(test)]
mod props {
    use super::*;
    use crate::dataset::DatasetBuilder;
    use proptest::prelude::*;

    proptest! {
        /// A durable log replays to exactly the same dataset as applying
        /// the ops directly, across a reopen.
        #[test]
        fn durable_replay_equals_direct_application(
            raw in proptest::collection::vec((0u8..5, 0u8..5), 0..40)
        ) {
            let schema = Schema::new(["Z", "C"]);
            let mut b = DatasetBuilder::new(schema.clone());
            b.push_row(&["60612", "Chicago"]);
            b.push_row(&["53703", "Madison"]);
            let base = b.build();

            let ops: Vec<DeltaOp> = raw
                .iter()
                .map(|(z, c)| DeltaOp::Append {
                    values: vec![format!("z{z}"), format!("c{c}")],
                })
                .collect();
            let mut direct = base.clone();
            for op in &ops {
                direct.apply_delta(op).unwrap();
            }

            let path = std::env::temp_dir().join(format!(
                "holo-delta-prop-{}-{:?}.dlog",
                std::process::id(),
                std::thread::current().id()
            ));
            std::fs::remove_file(&path).ok();
            {
                let mut log = DeltaLog::open(&path, schema.clone()).unwrap();
                for op in &ops {
                    log.append(op.clone()).unwrap();
                }
                log.flush().unwrap();
            }
            let log = DeltaLog::open(&path, schema).unwrap();
            let mut replayed = base.clone();
            log.replay_onto(&mut replayed, 0).unwrap();
            std::fs::remove_file(&path).ok();

            prop_assert!(direct.same_shape(&replayed));
            for t in 0..direct.n_tuples() {
                for a in 0..direct.n_attrs() {
                    prop_assert_eq!(direct.value(t, a), replayed.value(t, a));
                }
            }
        }
    }
}

//! The columnar dataset `D`.
//!
//! Cells are stored column-major as interned [`Symbol`]s: scans over one
//! attribute (empirical distributions, format models, constraint joins)
//! touch one contiguous `Vec<u32>`-sized allocation per column.

use crate::binio;
use crate::cell::CellId;
use crate::schema::Schema;
use crate::value::{Symbol, ValuePool};
use std::io::{self, Read, Write};

/// A relational dataset: schema + columns of interned values + the pool.
#[derive(Debug, Clone)]
pub struct Dataset {
    schema: Schema,
    /// `columns[a][t]` is the value of attribute `a` in tuple `t`.
    columns: Vec<Vec<Symbol>>,
    pool: ValuePool,
}

impl Dataset {
    /// Number of tuples (rows).
    #[inline]
    pub fn n_tuples(&self) -> usize {
        self.columns.first().map_or(0, Vec::len)
    }

    /// Number of attributes (columns).
    #[inline]
    pub fn n_attrs(&self) -> usize {
        self.schema.len()
    }

    /// Total number of cells, `n_tuples × n_attrs`.
    #[inline]
    pub fn n_cells(&self) -> usize {
        self.n_tuples() * self.n_attrs()
    }

    /// The schema.
    #[inline]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The value pool (for resolving symbols en masse).
    #[inline]
    pub fn pool(&self) -> &ValuePool {
        &self.pool
    }

    /// The interned symbol at `(tuple, attr)`.
    #[inline]
    pub fn symbol(&self, tuple: usize, attr: usize) -> Symbol {
        self.columns[attr][tuple]
    }

    /// The string value at `(tuple, attr)`.
    #[inline]
    pub fn value(&self, tuple: usize, attr: usize) -> &str {
        self.pool.resolve(self.symbol(tuple, attr))
    }

    /// The string value of a cell.
    #[inline]
    pub fn cell_value(&self, cell: CellId) -> &str {
        self.value(cell.t(), cell.a())
    }

    /// The full column of attribute `a` as symbols.
    #[inline]
    pub fn column(&self, a: usize) -> &[Symbol] {
        &self.columns[a]
    }

    /// Overwrite the value of a cell (used by error injectors and repair
    /// engines). Interns the new value if needed.
    pub fn set_value(&mut self, tuple: usize, attr: usize, value: &str) {
        let sym = self.pool.intern(value);
        self.columns[attr][tuple] = sym;
    }

    /// Append one tuple at the end of the dataset (row index `n_tuples`),
    /// interning its values.
    ///
    /// # Panics
    /// Panics if the row arity does not match the schema.
    pub fn push_row<S: AsRef<str>>(&mut self, row: &[S]) {
        assert_eq!(
            row.len(),
            self.schema.len(),
            "row arity {} does not match schema arity {}",
            row.len(),
            self.schema.len()
        );
        for (col, v) in self.columns.iter_mut().zip(row) {
            col.push(self.pool.intern(v.as_ref()));
        }
    }

    /// Iterate over every cell id in row-major order.
    pub fn cell_ids(&self) -> impl Iterator<Item = CellId> + '_ {
        let (nt, na) = (self.n_tuples(), self.n_attrs());
        (0..nt).flat_map(move |t| (0..na).map(move |a| CellId::new(t, a)))
    }

    /// The values of one tuple, in schema order.
    pub fn tuple_values(&self, t: usize) -> Vec<&str> {
        (0..self.n_attrs()).map(|a| self.value(t, a)).collect()
    }

    /// Intern a string into this dataset's pool without placing it in any
    /// cell (used when featurizing hypothetical values).
    pub fn intern(&mut self, s: &str) -> Symbol {
        self.pool.intern(s)
    }

    /// Cheap structural check used by ground-truth construction: same
    /// schema and same row count.
    pub fn same_shape(&self, other: &Dataset) -> bool {
        self.schema == other.schema && self.n_tuples() == other.n_tuples()
    }

    /// Serialize the dataset: schema, pool strings in symbol order, then
    /// the columns as raw symbol ids. Preserving the pool's interning
    /// order makes the roundtrip exact — symbols in a reloaded dataset
    /// are identical to the original's, so symbol-keyed indexes rebuilt
    /// over it match the fit-time ones bit for bit.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        binio::write_usize(w, self.schema.len())?;
        for name in self.schema.names() {
            binio::write_str(w, name)?;
        }
        binio::write_usize(w, self.pool.len())?;
        for (_, s) in self.pool.iter() {
            binio::write_str(w, s)?;
        }
        binio::write_usize(w, self.n_tuples())?;
        for col in &self.columns {
            for sym in col {
                binio::write_u32(w, sym.0)?;
            }
        }
        Ok(())
    }

    /// Deserialize a dataset written by [`Dataset::write_to`].
    pub fn read_from<R: Read>(r: &mut R) -> io::Result<Dataset> {
        let na = binio::read_usize(r)?;
        let mut names = Vec::with_capacity(binio::bounded_cap(na, 24));
        for _ in 0..na {
            names.push(binio::read_str(r)?);
        }
        let schema = Schema::new(names);
        let n_strings = binio::read_usize(r)?;
        let mut pool = ValuePool::new();
        for _ in 0..n_strings {
            pool.intern(&binio::read_str(r)?);
        }
        let nt = binio::read_usize(r)?;
        let mut columns = Vec::with_capacity(binio::bounded_cap(na, 24));
        for _ in 0..na {
            let mut col = Vec::with_capacity(binio::bounded_cap(nt, 4));
            for _ in 0..nt {
                let raw = binio::read_u32(r)?;
                if raw as usize >= pool.len() {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("symbol {raw} out of pool range {}", pool.len()),
                    ));
                }
                col.push(Symbol(raw));
            }
            columns.push(col);
        }
        Ok(Dataset {
            schema,
            columns,
            pool,
        })
    }
}

/// Row-by-row builder for [`Dataset`].
#[derive(Debug)]
pub struct DatasetBuilder {
    schema: Schema,
    columns: Vec<Vec<Symbol>>,
    pool: ValuePool,
}

impl DatasetBuilder {
    /// Start building a dataset with the given schema.
    pub fn new(schema: Schema) -> Self {
        let columns = (0..schema.len()).map(|_| Vec::new()).collect();
        DatasetBuilder {
            schema,
            columns,
            pool: ValuePool::new(),
        }
    }

    /// Reserve capacity for `rows` tuples.
    pub fn with_capacity(mut self, rows: usize) -> Self {
        for col in &mut self.columns {
            col.reserve(rows);
        }
        self
    }

    /// Append one tuple.
    ///
    /// # Panics
    /// Panics if the row arity does not match the schema.
    pub fn push_row<S: AsRef<str>>(&mut self, row: &[S]) {
        assert_eq!(
            row.len(),
            self.schema.len(),
            "row arity {} does not match schema arity {}",
            row.len(),
            self.schema.len()
        );
        for (col, v) in self.columns.iter_mut().zip(row) {
            col.push(self.pool.intern(v.as_ref()));
        }
    }

    /// Number of rows pushed so far.
    pub fn rows(&self) -> usize {
        self.columns.first().map_or(0, Vec::len)
    }

    /// Finish building.
    pub fn build(self) -> Dataset {
        Dataset {
            schema: self.schema,
            columns: self.columns,
            pool: self.pool,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        let mut b = DatasetBuilder::new(Schema::new(["City", "State", "Zip"]));
        b.push_row(&["Chicago", "IL", "60612"]);
        b.push_row(&["Chicago", "IL", "60614"]);
        b.push_row(&["Madison", "WI", "53703"]);
        b.build()
    }

    #[test]
    fn shape() {
        let d = toy();
        assert_eq!(d.n_tuples(), 3);
        assert_eq!(d.n_attrs(), 3);
        assert_eq!(d.n_cells(), 9);
    }

    #[test]
    fn value_access() {
        let d = toy();
        assert_eq!(d.value(0, 0), "Chicago");
        assert_eq!(d.value(2, 1), "WI");
        assert_eq!(d.cell_value(CellId::new(1, 2)), "60614");
    }

    #[test]
    fn shared_values_share_symbols() {
        let d = toy();
        assert_eq!(d.symbol(0, 0), d.symbol(1, 0));
        assert_ne!(d.symbol(0, 0), d.symbol(2, 0));
    }

    #[test]
    fn set_value_updates() {
        let mut d = toy();
        d.set_value(0, 2, "60613");
        assert_eq!(d.value(0, 2), "60613");
        // untouched neighbours unchanged
        assert_eq!(d.value(1, 2), "60614");
    }

    #[test]
    fn cell_ids_cover_all_cells() {
        let d = toy();
        let ids: Vec<CellId> = d.cell_ids().collect();
        assert_eq!(ids.len(), 9);
        assert_eq!(ids[0], CellId::new(0, 0));
        assert_eq!(ids[8], CellId::new(2, 2));
    }

    #[test]
    fn tuple_values_in_schema_order() {
        let d = toy();
        assert_eq!(d.tuple_values(2), vec!["Madison", "WI", "53703"]);
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_mismatch_panics() {
        let mut b = DatasetBuilder::new(Schema::new(["A", "B"]));
        b.push_row(&["only one"]);
    }

    #[test]
    fn empty_dataset() {
        let d = DatasetBuilder::new(Schema::new(["A"])).build();
        assert_eq!(d.n_tuples(), 0);
        assert_eq!(d.n_cells(), 0);
        assert_eq!(d.cell_ids().count(), 0);
    }

    #[test]
    fn binary_roundtrip_preserves_values_and_symbols() {
        let mut d = toy();
        d.set_value(0, 2, "60613"); // post-build intern, exercises pool order
        let mut buf = Vec::new();
        d.write_to(&mut buf).unwrap();
        let d2 = Dataset::read_from(&mut std::io::Cursor::new(buf)).unwrap();
        assert!(d.same_shape(&d2));
        for t in 0..d.n_tuples() {
            for a in 0..d.n_attrs() {
                assert_eq!(d.value(t, a), d2.value(t, a));
                assert_eq!(d.symbol(t, a), d2.symbol(t, a));
            }
        }
        assert_eq!(d.pool().len(), d2.pool().len());
    }

    #[test]
    fn read_rejects_out_of_range_symbol() {
        let d = toy();
        let mut buf = Vec::new();
        d.write_to(&mut buf).unwrap();
        let n = buf.len();
        // Corrupt the last symbol id to an out-of-pool value.
        buf[n - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(Dataset::read_from(&mut std::io::Cursor::new(buf)).is_err());
    }

    #[test]
    fn same_shape_checks_schema_and_rows() {
        let d1 = toy();
        let d2 = toy();
        assert!(d1.same_shape(&d2));
        let other = DatasetBuilder::new(Schema::new(["X"])).build();
        assert!(!d1.same_shape(&other));
    }
}

#[cfg(test)]
mod props {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Building from rows and reading back is the identity.
        #[test]
        fn roundtrip(rows in proptest::collection::vec(
            proptest::collection::vec("[a-z0-9 ]{0,6}", 3..=3), 0..20)
        ) {
            let mut b = DatasetBuilder::new(Schema::new(["A", "B", "C"]));
            for r in &rows {
                b.push_row(r);
            }
            let d = b.build();
            prop_assert_eq!(d.n_tuples(), rows.len());
            for (t, r) in rows.iter().enumerate() {
                for (a, v) in r.iter().enumerate() {
                    prop_assert_eq!(d.value(t, a), v.as_str());
                }
            }
        }
    }
}

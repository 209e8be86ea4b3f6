package bitvec

import "fmt"

// Matrix is a rows×cols bit matrix. It is the shape every data-flow state in
// this module takes: one row per node, one column per expression.
//
// Storage is flat: a single []uint64 backing holds every row contiguously
// (stride words apiece) and a []Vector header slice aliases into it. A matrix
// is therefore three allocations regardless of its row count, where the
// previous one-words-slice-per-row layout cost 2·rows+1 — at depth-5 program
// scale that was the dominant allocation source of an entire analysis. The
// flat backing also makes ClearAll a single memclr and gives row sweeps
// perfect spatial locality.
type Matrix struct {
	rows, cols int
	stride     int // words per row
	vecs       []Vector
	words      []uint64
}

// NewMatrix returns a zeroed rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("bitvec: negative matrix dimensions %d×%d", rows, cols))
	}
	stride := (cols + wordMask) >> wordLog
	m := &Matrix{
		rows:   rows,
		cols:   cols,
		stride: stride,
		vecs:   make([]Vector, rows),
		words:  make([]uint64, rows*stride),
	}
	for i := range m.vecs {
		m.vecs[i] = Vector{n: cols, words: m.words[i*stride : (i+1)*stride : (i+1)*stride]}
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// Row returns row i. The returned vector aliases the matrix backing; callers
// that need a private copy must Copy it.
func (m *Matrix) Row(i int) *Vector {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("bitvec: row %d out of range [0,%d)", i, m.rows))
	}
	return &m.vecs[i]
}

// Stride returns the number of backing words per row.
func (m *Matrix) Stride() int { return m.stride }

// Data returns the flat backing storage: row i occupies
// Data()[i*Stride() : (i+1)*Stride()]. Mutating the slice mutates the
// matrix. The serial solver's hot loop indexes it directly so a sweep
// over narrow vectors does not pay a Row header and a method dispatch
// per visit.
func (m *Matrix) Data() []uint64 { return m.words }

// Get reports whether bit (row, col) is set.
func (m *Matrix) Get(row, col int) bool { return m.Row(row).Get(col) }

// Set sets bit (row, col).
func (m *Matrix) Set(row, col int) { m.Row(row).Set(col) }

// Clear clears bit (row, col).
func (m *Matrix) Clear(row, col int) { m.Row(row).Clear(col) }

// SetBool sets bit (row, col) to b.
func (m *Matrix) SetBool(row, col int, b bool) { m.Row(row).SetBool(col, b) }

// ClearAll clears every bit of every row, keeping the backing storage.
func (m *Matrix) ClearAll() {
	clear(m.words)
}

// Caps returns the row and word capacities of the backing storage — the
// largest shapes Reshape can take without reallocating.
func (m *Matrix) Caps() (rows, words int) { return cap(m.vecs), cap(m.words) }

// Reshape re-forms m as a zeroed rows×cols matrix over its existing
// backing, returning false (and leaving m untouched) when the backing is
// too small. Scratch arenas use it to recycle a matrix released by one
// analysis for the differently-shaped state of the next, so a batch over
// many functions stops allocating once its largest shape has been seen.
func (m *Matrix) Reshape(rows, cols int) bool {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("bitvec: negative matrix dimensions %d×%d", rows, cols))
	}
	stride := (cols + wordMask) >> wordLog
	need := rows * stride
	if cap(m.words) < need || cap(m.vecs) < rows {
		return false
	}
	m.rows, m.cols, m.stride = rows, cols, stride
	m.words = m.words[:need]
	clear(m.words)
	m.vecs = m.vecs[:rows]
	for i := range m.vecs {
		m.vecs[i] = Vector{n: cols, words: m.words[i*stride : (i+1)*stride : (i+1)*stride]}
	}
	return true
}

// Copy returns an independent copy of m.
func (m *Matrix) Copy() *Matrix {
	c := NewMatrix(m.rows, m.cols)
	copy(c.words, m.words)
	return c
}

// Equal reports whether m and o have identical dimensions and contents.
func (m *Matrix) Equal(o *Matrix) bool {
	if m.rows != o.rows || m.cols != o.cols {
		return false
	}
	for i := range m.words {
		if m.words[i] != o.words[i] {
			return false
		}
	}
	return true
}

// Column extracts column c as a fresh vector of length Rows.
func (m *Matrix) Column(c int) *Vector {
	v := New(m.rows)
	for i := 0; i < m.rows; i++ {
		if m.vecs[i].Get(c) {
			v.Set(i)
		}
	}
	return v
}

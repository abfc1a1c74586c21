// Package storage implements the in-memory row store underneath the engine:
// typed schemas with a fixed-width row codec, and first-touch chunked arrays
// keyed by record ID (Slots) that hold both the table arena and every
// concurrency-control protocol's per-record metadata.
//
// Tuples are fixed-width byte slices. Fixed width keeps the record path
// allocation-free and makes per-record concurrency-control metadata a simple
// parallel array indexed by record ID — the same layout decision DBx1000 and
// most research main-memory engines make.
package storage

import (
	"encoding/binary"
	"fmt"
	"math"
)

// ColType enumerates supported column types.
type ColType uint8

const (
	// TypeInt64 is a signed 64-bit integer column.
	TypeInt64 ColType = iota
	// TypeFloat64 is a 64-bit IEEE float column.
	TypeFloat64
	// TypeString is a fixed-capacity string column (length-prefixed inside
	// the fixed slot).
	TypeString
)

// String implements fmt.Stringer.
func (t ColType) String() string {
	switch t {
	case TypeInt64:
		return "int64"
	case TypeFloat64:
		return "float64"
	case TypeString:
		return "string"
	default:
		return fmt.Sprintf("ColType(%d)", uint8(t))
	}
}

// Column describes one column of a schema.
type Column struct {
	Name string
	Type ColType
	// Size is the fixed byte capacity for TypeString columns (excluding the
	// 2-byte length prefix); ignored for numeric types.
	Size int
}

// Schema is an ordered list of columns with precomputed offsets into the
// fixed-width row image.
type Schema struct {
	name    string
	cols    []Column
	offsets []int
	rowSize int
	byName  map[string]int
}

// NewSchema builds a schema. Column names must be unique and non-empty;
// string columns must declare a positive Size.
func NewSchema(name string, cols ...Column) (*Schema, error) {
	if name == "" {
		return nil, fmt.Errorf("storage: schema needs a name")
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("storage: schema %q needs at least one column", name)
	}
	s := &Schema{
		name:    name,
		cols:    append([]Column(nil), cols...),
		offsets: make([]int, len(cols)),
		byName:  make(map[string]int, len(cols)),
	}
	off := 0
	for i, c := range cols {
		if c.Name == "" {
			return nil, fmt.Errorf("storage: schema %q column %d has empty name", name, i)
		}
		if _, dup := s.byName[c.Name]; dup {
			return nil, fmt.Errorf("storage: schema %q duplicate column %q", name, c.Name)
		}
		s.byName[c.Name] = i
		s.offsets[i] = off
		switch c.Type {
		case TypeInt64, TypeFloat64:
			off += 8
		case TypeString:
			if c.Size <= 0 || c.Size > math.MaxUint16 {
				return nil, fmt.Errorf("storage: schema %q string column %q needs Size in [1,65535]", name, c.Name)
			}
			off += 2 + c.Size
		default:
			return nil, fmt.Errorf("storage: schema %q column %q has unknown type", name, c.Name)
		}
	}
	s.rowSize = off
	return s, nil
}

// MustSchema is NewSchema that panics on error; for statically known schemas.
func MustSchema(name string, cols ...Column) *Schema {
	s, err := NewSchema(name, cols...)
	if err != nil {
		panic(err)
	}
	return s
}

// Name returns the schema (table) name.
func (s *Schema) Name() string { return s.name }

// RowSize returns the fixed row image size in bytes.
func (s *Schema) RowSize() int { return s.rowSize }

// NumColumns returns the number of columns.
func (s *Schema) NumColumns() int { return len(s.cols) }

// Column returns the i-th column descriptor.
func (s *Schema) Column(i int) Column { return s.cols[i] }

// ColumnIndex returns the index of the named column, or -1.
func (s *Schema) ColumnIndex(name string) int {
	if i, ok := s.byName[name]; ok {
		return i
	}
	return -1
}

// Row is a fixed-width tuple image laid out per a Schema. Accessors do not
// retain the slice.
type Row []byte

// GetInt64 reads the i-th column as int64.
func (s *Schema) GetInt64(row Row, i int) int64 {
	return int64(binary.LittleEndian.Uint64(row[s.offsets[i]:]))
}

// SetInt64 writes the i-th column as int64.
func (s *Schema) SetInt64(row Row, i int, v int64) {
	binary.LittleEndian.PutUint64(row[s.offsets[i]:], uint64(v))
}

// GetFloat64 reads the i-th column as float64.
func (s *Schema) GetFloat64(row Row, i int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(row[s.offsets[i]:]))
}

// SetFloat64 writes the i-th column as float64.
func (s *Schema) SetFloat64(row Row, i int, v float64) {
	binary.LittleEndian.PutUint64(row[s.offsets[i]:], math.Float64bits(v))
}

// GetString reads the i-th column as a string. The returned slice aliases
// row; copy it if it must outlive the row buffer.
func (s *Schema) GetString(row Row, i int) []byte {
	off := s.offsets[i]
	n := int(binary.LittleEndian.Uint16(row[off:]))
	return row[off+2 : off+2+n]
}

// SetString writes the i-th column as a string, truncating to the column's
// declared capacity.
func (s *Schema) SetString(row Row, i int, v []byte) {
	off := s.offsets[i]
	capacity := s.cols[i].Size
	if len(v) > capacity {
		v = v[:capacity]
	}
	binary.LittleEndian.PutUint16(row[off:], uint16(len(v)))
	copy(row[off+2:], v)
}

// NewRow allocates a zeroed row image for this schema.
func (s *Schema) NewRow() Row { return make(Row, s.rowSize) }

// I64 is shorthand for an int64 column.
func I64(name string) Column { return Column{Name: name, Type: TypeInt64} }

// F64 is shorthand for a float64 column.
func F64(name string) Column { return Column{Name: name, Type: TypeFloat64} }

// Str is shorthand for a fixed-capacity string column.
func Str(name string, size int) Column { return Column{Name: name, Type: TypeString, Size: size} }

package colbytes

import (
	"errors"
	"math"
	"testing"
)

func TestScalarRoundTrip(t *testing.T) {
	var b []byte
	b = AppendU8(b, 0xAB)
	b = AppendBool(b, true)
	b = AppendBool(b, false)
	b = AppendU32(b, 0xDEADBEEF)
	b = AppendU64(b, 1<<63|42)
	b = AppendF64(b, math.Copysign(0, -1))
	b = AppendF64(b, math.Inf(-1))
	b = AppendString(b, "héllo")
	b = AppendString(b, "")

	r := NewReader(b)
	if got := r.U8(); got != 0xAB {
		t.Errorf("U8 = %#x", got)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool round trip failed")
	}
	if got := r.U32(); got != 0xDEADBEEF {
		t.Errorf("U32 = %#x", got)
	}
	if got := r.U64(); got != 1<<63|42 {
		t.Errorf("U64 = %d", got)
	}
	if got := r.F64(); math.Signbit(got) == false || got != 0 {
		t.Errorf("F64 -0.0 = %v (signbit %v)", got, math.Signbit(got))
	}
	if got := r.F64(); !math.IsInf(got, -1) {
		t.Errorf("F64 -Inf = %v", got)
	}
	if got := r.String(); got != "héllo" {
		t.Errorf("String = %q", got)
	}
	if got := r.String(); got != "" {
		t.Errorf("empty String = %q", got)
	}
	if r.Err() != nil {
		t.Fatalf("Err = %v", r.Err())
	}
	if r.Remaining() != 0 {
		t.Errorf("Remaining = %d", r.Remaining())
	}
}

func TestColumnRoundTrip(t *testing.T) {
	u64s := []uint64{0, 1, math.MaxUint64, 7}
	u32s := []uint32{9, 0, math.MaxUint32}
	i32s := []int32{-1, 0, math.MinInt32, math.MaxInt32}
	f64s := []float64{0, math.Copysign(0, -1), 1.5, math.Inf(1), math.SmallestNonzeroFloat64}

	var b []byte
	b = AppendU64s(b, u64s)
	b = AppendU32s(b, u32s)
	b = AppendI32s(b, i32s)
	b = AppendF64s(b, f64s)
	b = AppendU64s(b, nil) // empty column

	r := NewReader(b)
	checkU64 := r.U64s(nil)
	checkU32 := r.U32s(nil)
	checkI32 := r.I32s(nil)
	checkF64 := r.F64s(nil)
	empty := r.U64s(nil)
	if r.Err() != nil {
		t.Fatalf("Err = %v", r.Err())
	}
	for i, v := range u64s {
		if checkU64[i] != v {
			t.Errorf("u64[%d] = %d, want %d", i, checkU64[i], v)
		}
	}
	for i, v := range u32s {
		if checkU32[i] != v {
			t.Errorf("u32[%d] = %d, want %d", i, checkU32[i], v)
		}
	}
	for i, v := range i32s {
		if checkI32[i] != v {
			t.Errorf("i32[%d] = %d, want %d", i, checkI32[i], v)
		}
	}
	for i, v := range f64s {
		if math.Float64bits(checkF64[i]) != math.Float64bits(v) {
			t.Errorf("f64[%d] = %v, want %v", i, checkF64[i], v)
		}
	}
	if len(empty) != 0 {
		t.Errorf("empty column decoded to %v", empty)
	}
}

func TestColumnReusesDst(t *testing.T) {
	b := AppendU64s(nil, []uint64{1, 2, 3})
	scratch := make([]uint64, 0, 8)
	got := NewReader(b).U64s(scratch)
	if &got[0] != &scratch[:1][0] {
		t.Error("column decode did not reuse dst capacity")
	}
}

func TestTruncatedInputs(t *testing.T) {
	full := AppendU64s(AppendString(nil, "abc"), []uint64{1, 2, 3})
	for cut := 0; cut < len(full); cut++ {
		r := NewReader(full[:cut])
		_ = r.String()
		_ = r.U64s(nil)
		if !errors.Is(r.Err(), ErrTruncated) {
			t.Fatalf("cut at %d: err = %v, want ErrTruncated", cut, r.Err())
		}
	}
}

// TestCorruptCountDoesNotAllocate pins the safety property: a column
// count far larger than the remaining payload fails instead of
// allocating count elements.
func TestCorruptCountDoesNotAllocate(t *testing.T) {
	b := AppendU32(nil, math.MaxUint32) // claims 4B elements, has none
	allocs := testing.AllocsPerRun(10, func() {
		r := NewReader(b)
		if r.U64s(nil) != nil || !errors.Is(r.Err(), ErrTruncated) {
			t.Fatal("corrupt count was not rejected")
		}
	})
	// O(1) bookkeeping allocations (Reader, error wrapping) are fine;
	// anything proportional to the claimed 4B-element count is not.
	if allocs > 8 {
		t.Errorf("corrupt count allocated %.0f times per run", allocs)
	}
}

func TestStickyError(t *testing.T) {
	r := NewReader([]byte{1})
	_ = r.U64() // fails
	if r.Err() == nil {
		t.Fatal("expected error")
	}
	if got := r.U8(); got != 0 {
		t.Errorf("read after error = %d, want 0", got)
	}
}

// TestBoolRejectsNonCanonical pins that only the bytes AppendBool
// writes decode as bools, so a decoded bool re-encodes to its input.
func TestBoolRejectsNonCanonical(t *testing.T) {
	r := NewReader([]byte{0, 1, 2})
	if r.Bool() || !r.Bool() || r.Err() != nil {
		t.Fatalf("canonical bools misread (err %v)", r.Err())
	}
	if r.Bool() || r.Err() == nil {
		t.Fatal("bool byte 2 was accepted")
	}
}

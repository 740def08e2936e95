package state

import (
	"errors"
	"fmt"

	"optiflow/internal/colbytes"
)

// Columnar snapshots: the one byte codec of DenseStore and ColWorkset
// (layout and validation rules in DESIGN.md §2.4). A blob is a run of
// store sections, each opening with a header — u8 version, the store
// name, and the partition range [lo, hi) it covers. Readers validate
// every count before allocating and return images that touch the store
// only on Install, so a restore installs nothing until the whole blob
// has parsed.

const snapshotVersion = 1

// Delta kinds, one byte per partition of a delta section.
const (
	deltaClean = 0 // unchanged
	deltaWhole = 1 // wiped since the last delta: a full partition view
	deltaPatch = 2 // u32 n, then n (u32 slot, value) pairs, slots ascending
)

var (
	// ErrSnapshotMismatch reports a section header of another store,
	// format version or partition range.
	ErrSnapshotMismatch = errors.New("state: snapshot section does not match the store")
	// ErrSnapshotCorrupt reports a snapshot that is truncated, has
	// trailing bytes, or fails validation against the partitioning.
	ErrSnapshotCorrupt = errors.New("state: corrupt snapshot")
)

// Codec is the fixed-width element codec of a snapshot's value column.
type Codec[V any] struct {
	Width  int
	Append func([]byte, V) []byte
	Read   func(*colbytes.Reader) V
}

// U64 and F64 are the codecs of uint64 and float64 value columns.
var (
	U64 = Codec[uint64]{Width: 8, Append: colbytes.AppendU64, Read: (*colbytes.Reader).U64}
	F64 = Codec[float64]{Width: 8, Append: colbytes.AppendF64, Read: (*colbytes.Reader).F64}
)

func headerLen(name string) int { return 1 + 4 + len(name) + 8 }

func appendHeader(dst []byte, name string, lo, hi int) []byte {
	dst = colbytes.AppendString(append(dst, snapshotVersion), name)
	return colbytes.AppendU32(colbytes.AppendU32(dst, uint32(lo)), uint32(hi))
}

func readHeader(r *colbytes.Reader, name string, lo, hi int) error {
	ver := r.U8()
	got := r.Raw(int(r.U32()), "store name")
	gotLo, gotHi := r.U32(), r.U32()
	if err := r.Err(); err != nil {
		return fmt.Errorf("%w: section header of %q: %w", ErrSnapshotCorrupt, name, err)
	}
	if ver != snapshotVersion || string(got) != name || int(gotLo) != lo || int(gotHi) != hi {
		return fmt.Errorf("%w: got v%d %q partitions [%d,%d), want v%d %q [%d,%d)",
			ErrSnapshotMismatch, ver, got, gotLo, gotHi, snapshotVersion, name, lo, hi)
	}
	return nil
}

func corrupt(name string, p int, format string, args ...any) error {
	return fmt.Errorf("%w: store %q partition %d: %s", ErrSnapshotCorrupt, name, p, fmt.Sprintf(format, args...))
}

// CheckEnd reports a read error left behind by the last section of a
// blob, or bytes trailing it.
func CheckEnd(r *colbytes.Reader) error {
	if err := r.Err(); err != nil {
		return fmt.Errorf("%w: %w", ErrSnapshotCorrupt, err)
	}
	if n := r.Remaining(); n != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrSnapshotCorrupt, n)
	}
	return nil
}

// densePart is one partition's parsed columns, not yet installed.
type densePart[V any] struct {
	vals  []V
	has   []bool
	count int
}

// AppendPartitionBytes appends partition p's view to dst, encoding each
// present value with enc.
func (s *DenseStore[V]) AppendPartitionBytes(dst []byte, p int, enc func([]byte, V) []byte) []byte {
	has := s.has[p]
	dst = colbytes.AppendU32(dst, uint32(len(has)))
	for _, h := range has {
		dst = colbytes.AppendBool(dst, h)
	}
	vals := s.vals[p]
	for slot, h := range has {
		if h {
			dst = enc(dst, vals[slot])
		}
	}
	return dst
}

// RestorePartitionBytes replaces partition p's contents from a view
// written by AppendPartitionBytes, decoding each present value with
// dec. Nothing changes unless the whole view parses; a successful
// restore unshares the partition, bumps its version and marks it
// wiped for the next delta.
func (s *DenseStore[V]) RestorePartitionBytes(p int, r *colbytes.Reader, dec func(*colbytes.Reader) V) error {
	dp, err := s.readPart(p, r, dec)
	if err != nil {
		return err
	}
	s.installPart(p, dp)
	return nil
}

func (s *DenseStore[V]) readPart(p int, r *colbytes.Reader, dec func(*colbytes.Reader) V) (densePart[V], error) {
	// A failed read leaves n zero and pres nil; the final Err check
	// reports it.
	n := int(r.U32())
	if n != len(s.pt.Owned[p]) {
		return densePart[V]{}, corrupt(s.name, p, "view has %d slots, partition owns %d", n, len(s.pt.Owned[p]))
	}
	pres := r.Raw(n, "presence column")
	dp := densePart[V]{vals: make([]V, n), has: make([]bool, n)}
	for slot, b := range pres {
		if b > 1 {
			return densePart[V]{}, corrupt(s.name, p, "presence byte %#x at slot %d", b, slot)
		}
		dp.has[slot] = b == 1
		dp.count += int(b)
	}
	for slot, h := range dp.has {
		if h {
			dp.vals[slot] = dec(r)
		}
	}
	if err := r.Err(); err != nil {
		return densePart[V]{}, corrupt(s.name, p, "%v", err)
	}
	return dp, nil
}

func (s *DenseStore[V]) installPart(p int, dp densePart[V]) {
	s.vals[p], s.has[p], s.count[p] = dp.vals, dp.has, dp.count
	s.shared[p] = false
	s.bump(p)
	s.markCleared(p)
}

// SnapshotLen is the exact length of AppendSnapshot's section for
// partitions [lo, hi), for sizing the destination in one Grow.
func (s *DenseStore[V]) SnapshotLen(c Codec[V], lo, hi int) int {
	n := headerLen(s.name)
	for p := lo; p < hi; p++ {
		n += 4 + len(s.has[p]) + s.count[p]*c.Width
	}
	return n
}

// AppendSnapshot appends a snapshot section of partitions [lo, hi):
// [0, NumPartitions()) for a full snapshot, [p, p+1) for partition p.
func (s *DenseStore[V]) AppendSnapshot(dst []byte, c Codec[V], lo, hi int) []byte {
	dst = appendHeader(dst, s.name, lo, hi)
	for p := lo; p < hi; p++ {
		dst = s.AppendPartitionBytes(dst, p, c.Append)
	}
	return dst
}

// DenseImage is a parsed and validated DenseStore section that has not
// touched the store yet.
type DenseImage[V any] struct {
	s     *DenseStore[V]
	lo    int
	parts []densePart[V]
}

// ReadSnapshot parses a section written by AppendSnapshot for the
// same partition range.
func (s *DenseStore[V]) ReadSnapshot(r *colbytes.Reader, c Codec[V], lo, hi int) (*DenseImage[V], error) {
	if err := readHeader(r, s.name, lo, hi); err != nil {
		return nil, err
	}
	img := &DenseImage[V]{s: s, lo: lo, parts: make([]densePart[V], hi-lo)}
	for i := range img.parts {
		dp, err := s.readPart(lo+i, r, c.Read)
		if err != nil {
			return nil, err
		}
		img.parts[i] = dp
	}
	return img, nil
}

// Install replaces the image's partitions in the store, exactly as
// RestorePartitionBytes does for each. The image must not be used
// afterwards.
func (img *DenseImage[V]) Install() {
	for i, dp := range img.parts {
		img.s.installPart(img.lo+i, dp)
	}
}

// DeltaLen is the exact length of AppendDelta's section.
func (s *DenseStore[V]) DeltaLen(c Codec[V]) int {
	n := headerLen(s.name) + len(s.vals)
	for p := range s.vals {
		switch {
		case s.cleared[p]:
			n += 4 + len(s.has[p]) + s.count[p]*c.Width
		case s.dirtyCount[p] > 0:
			n += 4 + s.dirtyCount[p]*(4+c.Width)
		}
	}
	return n
}

// AppendDelta appends the change set since the previous AppendDelta
// (or MarkClean) as a delta section, then marks the store clean. Each
// partition is one kind byte: unchanged; wiped, followed by its full
// view; or patched, followed by its dirty (slot, value) pairs. Entries
// disappear only when a partition is wiped, so a dirty slot is always
// present and a patch needs no presence column.
func (s *DenseStore[V]) AppendDelta(dst []byte, c Codec[V]) []byte {
	dst = appendHeader(dst, s.name, 0, len(s.vals))
	for p := range s.vals {
		switch {
		case s.cleared[p]:
			dst = s.AppendPartitionBytes(append(dst, deltaWhole), p, c.Append)
		case s.dirtyCount[p] > 0:
			dst = colbytes.AppendU32(append(dst, deltaPatch), uint32(s.dirtyCount[p]))
			for slot, d := range s.dirty[p] {
				if d {
					dst = c.Append(colbytes.AppendU32(dst, uint32(slot)), s.vals[p][slot])
				}
			}
		default:
			dst = append(dst, deltaClean)
		}
	}
	s.MarkClean()
	return dst
}

// ReadDelta parses a delta section written by AppendDelta and applies
// it to the image, which must cover every partition (a full snapshot's
// image). The store stays untouched; on error the image is unusable.
func (img *DenseImage[V]) ReadDelta(r *colbytes.Reader, c Codec[V]) error {
	s := img.s
	if err := readHeader(r, s.name, 0, len(s.vals)); err != nil {
		return err
	}
	for p := range img.parts {
		switch kind := r.U8(); kind {
		case deltaClean:
		case deltaWhole:
			dp, err := s.readPart(p, r, c.Read)
			if err != nil {
				return err
			}
			img.parts[p] = dp
		case deltaPatch:
			if err := img.readPatch(p, r, c); err != nil {
				return err
			}
		default:
			return corrupt(s.name, p, "delta kind %d", kind)
		}
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("%w: delta of %q: %w", ErrSnapshotCorrupt, s.name, err)
	}
	return nil
}

func (img *DenseImage[V]) readPatch(p int, r *colbytes.Reader, c Codec[V]) error {
	dp := &img.parts[p]
	n, prev := int(r.U32()), -1
	if n == 0 || n > len(dp.has) {
		return corrupt(img.s.name, p, "patch of %d entries, partition owns %d", n, len(dp.has))
	}
	for ; n > 0; n-- {
		slot := int(r.U32())
		if r.Err() != nil || slot <= prev || slot >= len(dp.has) {
			return corrupt(img.s.name, p, "patch slot %d after %d, partition owns %d", slot, prev, len(dp.has))
		}
		if prev = slot; !dp.has[slot] {
			dp.has[slot] = true
			dp.count++
		}
		dp.vals[slot] = c.Read(r)
	}
	return nil
}

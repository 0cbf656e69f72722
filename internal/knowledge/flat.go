package knowledge

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"namer/internal/confusion"
	"namer/internal/ml"
	"namer/internal/namepath"
	"namer/internal/pattern"
)

// Binary format version 2: a flat, offset-based layout. Decoding is a
// header check, a CRC-32C checksum, and one bounds pass over the index
// sections, followed by a single materializing pass over the
// pre-validated tables. All integers are fixed-width little-endian, so
// any record is O(1) addressable:
//
//	off   0  magic      4 bytes, 0x9E 'N' 'K' 'B'
//	off   4  version    1 byte, 2 (version 1 was a retired varint
//	                    stream; it is rejected by name, so an old
//	                    artifact is re-mined, never misparsed)
//	off   5  pad        3 zero bytes
//	off   8  checksum   u32, CRC-32C over bytes [0,8) ++ [12,len)
//	off  12  length     u32, total file length (rejects truncation and
//	                    trailing garbage before the checksum runs)
//	off  16  fields     21 × u32 (see the hdr* constants): the lang
//	                    string id, and per section its element count and
//	                    absolute byte offset
//
// Sections (any order; offsets are absolute):
//
//	string offsets  u32 × (nStrings+1), cumulative starts into the blob
//	string blob     raw bytes; string i = blob[offs[i]:offs[i+1]]
//	pairs           12 B each: mistaken id, correct id, count
//	elems           8 B each: value string id, child index
//	paths           12 B each: elem start, elem count, end string id
//	patterns        32 B each: type, count, match count, satisfy count,
//	                condition path start/count, deduction path start/count
//	floats          8 B each, IEEE-754 LE: mean ++ std ++ pcaMean ++
//	                pca (rows×cols, row-major) ++ weights ++ bias
//
// Paths reference a shared elem array and patterns reference a shared
// path array, so the entire pattern set is three flat tables plus one
// interned string table — the on-disk mirror of the arena layout the
// FP-tree already uses in memory.

// magic identifies a binary knowledge file. The first byte is outside
// ASCII so a binary artifact can never be taken for a text file, such as
// the JSON artifacts older builds wrote.
var magic = [4]byte{0x9E, 'N', 'K', 'B'}

// Version is the binary format version. Decoders reject every other
// version with a descriptive error instead of misparsing.
const Version = 2

// Decode sanity bounds: counts above these limits indicate a corrupt or
// hostile file and fail fast instead of attempting a giant allocation.
const (
	maxStrings  = 1 << 26
	maxPairs    = 1 << 26
	maxPatterns = 1 << 26
	maxFloats   = 1 << 24
)

// Header field indices (u32 slots starting at byte 16).
const (
	hdrLang = iota
	hdrNumStrings
	hdrStrOffsOff
	hdrStrBlobOff
	hdrStrBlobLen
	hdrNumPairs
	hdrPairsOff
	hdrNumElems
	hdrElemsOff
	hdrNumPaths
	hdrPathsOff
	hdrNumPatterns
	hdrPatternsOff
	hdrClsFlags
	hdrFloatsOff
	hdrNumMean
	hdrNumStd
	hdrNumPCAMean
	hdrPCARows
	hdrPCACols
	hdrNumWeights

	hdrFields
)

// Fixed byte offsets and record sizes of the v2 layout.
const (
	v2ChecksumOff = 8
	v2LengthOff   = 12
	v2FieldsOff   = 16
	v2HeaderLen   = v2FieldsOff + hdrFields*4

	v2PairSize    = 12
	v2ElemSize    = 8
	v2PathSize    = 12
	v2PatternSize = 32
)

// Classifier flag bits (hdrClsFlags).
const (
	clsPresent = 1 << 0
	clsUsePCA  = 1 << 1
)

// crcTable is the CRC-32C (Castagnoli) polynomial, hardware-accelerated
// on amd64/arm64.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// v2Checksum computes the artifact checksum: everything except the
// 4-byte checksum field itself.
func v2Checksum(data []byte) uint32 {
	c := crc32.Update(0, crcTable, data[:v2ChecksumOff])
	return crc32.Update(c, crcTable, data[v2ChecksumOff+4:])
}

// EncodeBinary renders the artifact in the binary format.
func EncodeBinary(a *Artifact) ([]byte, error) {
	e := &stringTable{ids: make(map[string]uint32)}
	// Intern every string in a deterministic order: lang, pairs, then
	// pattern paths.
	e.intern(a.Lang)
	pairs := orderedPairs(a.Pairs)
	for _, p := range pairs {
		e.intern(p[0])
		e.intern(p[1])
	}
	for _, p := range a.Patterns {
		for _, np := range p.Condition {
			e.internPath(np)
		}
		for _, np := range p.Deduction {
			e.internPath(np)
		}
	}

	// Flatten patterns into the shared elem and path tables.
	type flatPath struct{ elemStart, elemCount, end uint32 }
	type flatPattern struct{ f [8]uint32 }
	var elems []uint32 // (value id, child index) pairs, flattened
	var paths []flatPath
	var pats []flatPattern
	addPath := func(np namepath.Path) error {
		fp := flatPath{elemStart: uint32(len(elems) / 2), elemCount: uint32(len(np.Prefix))}
		for _, el := range np.Prefix {
			if el.Index < 0 || el.Index > math.MaxInt32 {
				return fmt.Errorf("knowledge: path element index %d out of int32 range", el.Index)
			}
			elems = append(elems, e.ids[el.Value], uint32(el.Index))
		}
		fp.end = e.ids[np.End]
		paths = append(paths, fp)
		return nil
	}
	u32stat := func(what string, v int) (uint32, error) {
		if v < 0 || v > math.MaxInt32 {
			return 0, fmt.Errorf("knowledge: pattern %s %d out of int32 range", what, v)
		}
		return uint32(v), nil
	}
	for _, p := range a.Patterns {
		var fp flatPattern
		var err error
		fp.f[0] = uint32(p.Type)
		if fp.f[1], err = u32stat("count", p.Count); err != nil {
			return nil, err
		}
		if fp.f[2], err = u32stat("match count", p.MatchCount); err != nil {
			return nil, err
		}
		if fp.f[3], err = u32stat("satisfy count", p.SatisfyCount); err != nil {
			return nil, err
		}
		fp.f[4], fp.f[5] = uint32(len(paths)), uint32(len(p.Condition))
		for _, np := range p.Condition {
			if err := addPath(np); err != nil {
				return nil, err
			}
		}
		fp.f[6], fp.f[7] = uint32(len(paths)), uint32(len(p.Deduction))
		for _, np := range p.Deduction {
			if err := addPath(np); err != nil {
				return nil, err
			}
		}
		pats = append(pats, fp)
	}

	// Classifier floats: one contiguous blob, bias last.
	var floats []float64
	var flags uint32
	var nMean, nStd, nPCAMean, pcaRows, pcaCols, nWeights uint32
	if c := a.Classifier; c != nil {
		flags = clsPresent
		if c.UsePCA {
			flags |= clsUsePCA
		}
		nMean, nStd, nPCAMean = uint32(len(c.Mean)), uint32(len(c.Std)), uint32(len(c.PCAMean))
		nWeights = uint32(len(c.Weights))
		pcaRows = uint32(len(c.PCACols))
		if pcaRows > 0 {
			pcaCols = uint32(len(c.PCACols[0]))
		}
		floats = append(floats, c.Mean...)
		floats = append(floats, c.Std...)
		floats = append(floats, c.PCAMean...)
		for _, row := range c.PCACols {
			if uint32(len(row)) != pcaCols {
				return nil, fmt.Errorf("knowledge: ragged PCA matrix (%d vs %d cols)", len(row), pcaCols)
			}
			floats = append(floats, row...)
		}
		floats = append(floats, c.Weights...)
		floats = append(floats, c.Bias)
	}

	// Lay out the sections and emit.
	var h [hdrFields]uint32
	strBlobLen := 0
	for _, s := range e.strings {
		strBlobLen += len(s)
	}
	pos := uint32(v2HeaderLen)
	place := func(n int, size int) uint32 {
		off := pos
		pos += uint32(n * size)
		return off
	}
	h[hdrLang] = e.ids[a.Lang]
	h[hdrNumStrings] = uint32(len(e.strings))
	h[hdrStrOffsOff] = place(len(e.strings)+1, 4)
	h[hdrStrBlobOff] = place(strBlobLen, 1)
	h[hdrStrBlobLen] = uint32(strBlobLen)
	h[hdrNumPairs] = uint32(len(pairs))
	h[hdrPairsOff] = place(len(pairs), v2PairSize)
	h[hdrNumElems] = uint32(len(elems) / 2)
	h[hdrElemsOff] = place(len(elems)/2, v2ElemSize)
	h[hdrNumPaths] = uint32(len(paths))
	h[hdrPathsOff] = place(len(paths), v2PathSize)
	h[hdrNumPatterns] = uint32(len(pats))
	h[hdrPatternsOff] = place(len(pats), v2PatternSize)
	h[hdrClsFlags] = flags
	h[hdrFloatsOff] = place(len(floats), 8)
	h[hdrNumMean], h[hdrNumStd], h[hdrNumPCAMean] = nMean, nStd, nPCAMean
	h[hdrPCARows], h[hdrPCACols], h[hdrNumWeights] = pcaRows, pcaCols, nWeights

	buf := make([]byte, pos)
	copy(buf, magic[:])
	buf[len(magic)] = Version
	binary.LittleEndian.PutUint32(buf[v2LengthOff:], pos)
	for i, f := range h {
		binary.LittleEndian.PutUint32(buf[v2FieldsOff+4*i:], f)
	}
	off := h[hdrStrOffsOff]
	cum := uint32(0)
	for _, s := range e.strings {
		binary.LittleEndian.PutUint32(buf[off:], cum)
		off += 4
		cum += uint32(len(s))
	}
	binary.LittleEndian.PutUint32(buf[off:], cum)
	off = h[hdrStrBlobOff]
	for _, s := range e.strings {
		copy(buf[off:], s)
		off += uint32(len(s))
	}
	off = h[hdrPairsOff]
	for _, p := range pairs {
		binary.LittleEndian.PutUint32(buf[off:], e.ids[p[0]])
		binary.LittleEndian.PutUint32(buf[off+4:], e.ids[p[1]])
		n := a.Pairs.Count(p[0], p[1])
		if n < 0 || n > math.MaxInt32 {
			return nil, fmt.Errorf("knowledge: pair count %d out of int32 range", n)
		}
		binary.LittleEndian.PutUint32(buf[off+8:], uint32(n))
		off += v2PairSize
	}
	off = h[hdrElemsOff]
	for _, v := range elems {
		binary.LittleEndian.PutUint32(buf[off:], v)
		off += 4
	}
	off = h[hdrPathsOff]
	for _, p := range paths {
		binary.LittleEndian.PutUint32(buf[off:], p.elemStart)
		binary.LittleEndian.PutUint32(buf[off+4:], p.elemCount)
		binary.LittleEndian.PutUint32(buf[off+8:], p.end)
		off += v2PathSize
	}
	off = h[hdrPatternsOff]
	for _, p := range pats {
		for _, f := range p.f {
			binary.LittleEndian.PutUint32(buf[off:], f)
			off += 4
		}
	}
	off = h[hdrFloatsOff]
	for _, f := range floats {
		binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(f))
		off += 8
	}
	binary.LittleEndian.PutUint32(buf[v2ChecksumOff:], v2Checksum(buf))
	return buf, nil
}

// DecodeBinary parses a binary artifact, validating the magic, version,
// length, checksum, every internal reference, the pattern shapes, and
// the classifier shape. Corrupt, truncated, or other-versioned inputs
// return descriptive errors — never panics.
func DecodeBinary(data []byte) (*Artifact, error) {
	v, err := openView(data)
	if err != nil {
		return nil, err
	}
	a := v.artifact()
	if a.Classifier != nil {
		if err := a.Classifier.Validate(); err != nil {
			return nil, fmt.Errorf("knowledge: %w", err)
		}
	}
	return a, nil
}

// orderedPairs returns the pair set in its canonical (count-desc,
// lexicographic) order; nil sets encode as empty.
func orderedPairs(ps *confusion.PairSet) [][2]string {
	if ps == nil {
		return nil
	}
	return ps.Pairs()
}

// stringTable interns strings in first-seen order, so every name
// component is stored once and referenced by index.
type stringTable struct {
	strings []string
	ids     map[string]uint32
}

func (t *stringTable) intern(s string) {
	if _, ok := t.ids[s]; ok {
		return
	}
	t.ids[s] = uint32(len(t.strings))
	t.strings = append(t.strings, s)
}

func (t *stringTable) internPath(p namepath.Path) {
	for _, el := range p.Prefix {
		t.intern(el.Value)
	}
	t.intern(p.End)
}

// view is a validated read-only view over a v2 artifact: the raw bytes
// plus the decoded header. openView runs every integrity check, so
// artifact can materialize the tables without bounds errors. The
// underlying slice must not be mutated while the view is in use.
type view struct {
	data []byte
	h    [hdrFields]uint32
}

// openView validates data as a v2 artifact: the magic, the version, the
// length field, the checksum, and one bounds pass over the index
// sections. After a nil error, no read through the view can go out of
// bounds.
func openView(data []byte) (*view, error) {
	if len(data) < len(magic) || string(data[:len(magic)]) != string(magic[:]) {
		if t := bytes.TrimLeft(data, " \t\r\n"); len(t) > 0 && t[0] == '{' {
			return nil, fmt.Errorf("knowledge: JSON knowledge is no longer read; re-run namer-mine to write the binary format")
		}
		return nil, fmt.Errorf("knowledge: not a binary knowledge file (bad magic)")
	}
	if len(data) == len(magic) {
		return nil, fmt.Errorf("knowledge: binary artifact truncated before the version byte")
	}
	if version := data[len(magic)]; version != Version {
		return nil, fmt.Errorf("knowledge: unsupported binary version %d (this build reads only version %d; re-run namer-mine to regenerate the artifact)",
			version, Version)
	}
	if len(data) < v2HeaderLen {
		return nil, fmt.Errorf("knowledge: v2 artifact truncated (%d bytes, header needs %d)", len(data), v2HeaderLen)
	}
	if n := binary.LittleEndian.Uint32(data[v2LengthOff:]); uint64(n) != uint64(len(data)) {
		return nil, fmt.Errorf("knowledge: v2 length field %d does not match file size %d (truncated or trailing bytes)", n, len(data))
	}
	if got, want := v2Checksum(data), binary.LittleEndian.Uint32(data[v2ChecksumOff:]); got != want {
		return nil, fmt.Errorf("knowledge: v2 checksum mismatch (file %08x, computed %08x)", want, got)
	}
	v := &view{data: data}
	for i := range v.h {
		v.h[i] = binary.LittleEndian.Uint32(data[v2FieldsOff+4*i:])
	}
	if err := v.validate(); err != nil {
		return nil, err
	}
	return v, nil
}

// section checks that count records of size bytes starting at off fit
// inside the payload (and past the header), in overflow-safe arithmetic.
func (v *view) section(what string, off, count uint32, size, limit int) error {
	if uint64(count) > uint64(limit) {
		return fmt.Errorf("knowledge: v2: implausible %s count %d", what, count)
	}
	end := uint64(off) + uint64(count)*uint64(size)
	if off < v2HeaderLen || end > uint64(len(v.data)) {
		return fmt.Errorf("knowledge: v2: %s section [%d, %d) out of bounds (file is %d bytes)",
			what, off, end, len(v.data))
	}
	return nil
}

// validate runs the one-shot bounds pass: every section inside the
// file, string offsets monotone, and every cross-table index in range.
// It allocates nothing.
func (v *view) validate() error {
	h := &v.h
	nStr := h[hdrNumStrings]
	if err := v.section("string offset table", h[hdrStrOffsOff], nStr+1, 4, maxStrings+1); err != nil {
		return err
	}
	if err := v.section("string blob", h[hdrStrBlobOff], h[hdrStrBlobLen], 1, math.MaxInt32); err != nil {
		return err
	}
	if err := v.section("pair", h[hdrPairsOff], h[hdrNumPairs], v2PairSize, maxPairs); err != nil {
		return err
	}
	if err := v.section("elem", h[hdrElemsOff], h[hdrNumElems], v2ElemSize, maxStrings); err != nil {
		return err
	}
	if err := v.section("path", h[hdrPathsOff], h[hdrNumPaths], v2PathSize, maxStrings); err != nil {
		return err
	}
	if err := v.section("pattern", h[hdrPatternsOff], h[hdrNumPatterns], v2PatternSize, maxPatterns); err != nil {
		return err
	}
	prev := uint32(0)
	for i := uint32(0); i <= nStr; i++ {
		off := v.u32(h[hdrStrOffsOff] + 4*i)
		if off < prev || off > h[hdrStrBlobLen] {
			return fmt.Errorf("knowledge: v2: string offset table corrupt at entry %d (%d after %d, blob is %d bytes)",
				i, off, prev, h[hdrStrBlobLen])
		}
		prev = off
	}
	if h[hdrLang] >= nStr {
		return fmt.Errorf("knowledge: v2: lang string id %d out of range (table has %d)", h[hdrLang], nStr)
	}
	for i := uint32(0); i < h[hdrNumPairs]; i++ {
		off := h[hdrPairsOff] + i*v2PairSize
		if v.u32(off) >= nStr || v.u32(off+4) >= nStr {
			return fmt.Errorf("knowledge: v2: pair %d references string out of range", i)
		}
	}
	for i := uint32(0); i < h[hdrNumElems]; i++ {
		if v.u32(h[hdrElemsOff]+i*v2ElemSize) >= nStr {
			return fmt.Errorf("knowledge: v2: path element %d references string out of range", i)
		}
	}
	for i := uint32(0); i < h[hdrNumPaths]; i++ {
		off := h[hdrPathsOff] + i*v2PathSize
		if uint64(v.u32(off))+uint64(v.u32(off+4)) > uint64(h[hdrNumElems]) {
			return fmt.Errorf("knowledge: v2: path %d elem range out of bounds", i)
		}
		if v.u32(off+8) >= nStr {
			return fmt.Errorf("knowledge: v2: path %d end string out of range", i)
		}
	}
	for i := uint32(0); i < h[hdrNumPatterns]; i++ {
		off := h[hdrPatternsOff] + i*v2PatternSize
		typ := v.u32(off)
		condStart, condCount := v.u32(off+16), v.u32(off+20)
		dedStart, dedCount := v.u32(off+24), v.u32(off+28)
		if uint64(condStart)+uint64(condCount) > uint64(h[hdrNumPaths]) ||
			uint64(dedStart)+uint64(dedCount) > uint64(h[hdrNumPaths]) {
			return fmt.Errorf("knowledge: v2: pattern %d path range out of bounds", i)
		}
		// Shape check, mirroring pattern.Valid: consistency patterns have
		// two symbolic deduction paths, confusing-word patterns one
		// concrete deduction path. Symbolic means the end string is empty.
		switch pattern.Type(typ) {
		case pattern.Consistency:
			if dedCount != 2 || !v.pathSymbolic(dedStart) || !v.pathSymbolic(dedStart+1) {
				return fmt.Errorf("knowledge: v2: pattern %d is invalid for type consistency", i)
			}
		case pattern.ConfusingWord:
			if dedCount != 1 || v.pathSymbolic(dedStart) {
				return fmt.Errorf("knowledge: v2: pattern %d is invalid for type confusing-word", i)
			}
		default:
			return fmt.Errorf("knowledge: v2: pattern %d has unknown type %d", i, typ)
		}
	}
	flags := h[hdrClsFlags]
	if flags&^uint32(clsPresent|clsUsePCA) != 0 {
		return fmt.Errorf("knowledge: v2: unknown classifier flags %#x", flags)
	}
	for _, c := range []struct {
		what string
		n    uint32
	}{
		{"mean", h[hdrNumMean]}, {"std", h[hdrNumStd]}, {"pca mean", h[hdrNumPCAMean]},
		{"pca rows", h[hdrPCARows]}, {"pca cols", h[hdrPCACols]}, {"weights", h[hdrNumWeights]},
	} {
		if c.n > maxFloats {
			return fmt.Errorf("knowledge: v2: implausible classifier %s count %d", c.what, c.n)
		}
		if flags&clsPresent == 0 && c.n != 0 {
			return fmt.Errorf("knowledge: v2: classifier %s count %d without a classifier", c.what, c.n)
		}
	}
	if err := v.section("float", h[hdrFloatsOff], uint32(v.numFloats()), 8, maxFloats); err != nil {
		return err
	}
	return nil
}

// numFloats is the float-blob length implied by the classifier counts
// (bias included when a classifier is present). Bounded by validate's
// per-count limits, so the multiplication cannot overflow.
func (v *view) numFloats() uint64 {
	if v.h[hdrClsFlags]&clsPresent == 0 {
		return 0
	}
	return uint64(v.h[hdrNumMean]) + uint64(v.h[hdrNumStd]) + uint64(v.h[hdrNumPCAMean]) +
		uint64(v.h[hdrPCARows])*uint64(v.h[hdrPCACols]) + uint64(v.h[hdrNumWeights]) + 1
}

func (v *view) u32(off uint32) uint32 { return binary.LittleEndian.Uint32(v.data[off:]) }

// str materializes string table entry i (validated to be in range).
func (v *view) str(i uint32) string {
	lo := v.u32(v.h[hdrStrOffsOff] + 4*i)
	hi := v.u32(v.h[hdrStrOffsOff] + 4*i + 4)
	return string(v.data[v.h[hdrStrBlobOff]+lo : v.h[hdrStrBlobOff]+hi])
}

// strLen is str without the allocation, for validation predicates.
func (v *view) strLen(i uint32) uint32 {
	return v.u32(v.h[hdrStrOffsOff]+4*i+4) - v.u32(v.h[hdrStrOffsOff]+4*i)
}

// pathSymbolic reports whether path i ends in ϵ (the empty string).
func (v *view) pathSymbolic(i uint32) bool {
	return v.strLen(v.u32(v.h[hdrPathsOff]+i*v2PathSize+8)) == 0
}

// artifact materializes the whole artifact into the pointer form the
// scan index consumes. It is a flat pass over pre-validated tables: the
// string table is decoded once, path elements land in a single shared
// arena, and patterns are one slab.
func (v *view) artifact() *Artifact {
	strs := make([]string, v.h[hdrNumStrings])
	for i := range strs {
		strs[i] = v.str(uint32(i))
	}
	a := &Artifact{Lang: strs[v.h[hdrLang]], Pairs: confusion.NewPairSet()}
	for i := uint32(0); i < v.h[hdrNumPairs]; i++ {
		off := v.h[hdrPairsOff] + i*v2PairSize
		a.Pairs.AddN(strs[v.u32(off)], strs[v.u32(off+4)], int(v.u32(off+8)))
	}
	elems := make([]namepath.Elem, v.h[hdrNumElems])
	for i := range elems {
		off := v.h[hdrElemsOff] + uint32(i)*v2ElemSize
		elems[i] = namepath.Elem{Value: strs[v.u32(off)], Index: int(v.u32(off + 4))}
	}
	paths := make([]namepath.Path, v.h[hdrNumPaths])
	for i := range paths {
		off := v.h[hdrPathsOff] + uint32(i)*v2PathSize
		start, count := v.u32(off), v.u32(off+4)
		paths[i] = namepath.Path{
			Prefix: elems[start : start+count : start+count],
			End:    strs[v.u32(off+8)],
		}.Memoized()
	}
	pathRange := func(off uint32) []namepath.Path {
		start, count := v.u32(off), v.u32(off+4)
		return paths[start : start+count : start+count]
	}
	if n := v.h[hdrNumPatterns]; n > 0 {
		slab := make([]pattern.Pattern, n)
		a.Patterns = make([]*pattern.Pattern, n)
		for i := range slab {
			off := v.h[hdrPatternsOff] + uint32(i)*v2PatternSize
			slab[i] = pattern.Pattern{
				Type:         pattern.Type(v.u32(off)),
				Count:        int(v.u32(off + 4)),
				MatchCount:   int(v.u32(off + 8)),
				SatisfyCount: int(v.u32(off + 12)),
				Condition:    pathRange(off + 16),
				Deduction:    pathRange(off + 24),
			}
			a.Patterns[i] = &slab[i]
		}
	}
	// Precompute every identity key from this one goroutine, so the
	// patterns can be shared across concurrent scans without racing on
	// the lazy key cache.
	for _, p := range a.Patterns {
		p.Key()
	}
	if v.h[hdrClsFlags]&clsPresent != 0 {
		c := &ml.PipelineState{UsePCA: v.h[hdrClsFlags]&clsUsePCA != 0}
		off := v.h[hdrFloatsOff]
		take := func(n uint32) []float64 {
			if n == 0 {
				return nil
			}
			out := make([]float64, n)
			for i := range out {
				out[i] = math.Float64frombits(binary.LittleEndian.Uint64(v.data[off:]))
				off += 8
			}
			return out
		}
		c.Mean = take(v.h[hdrNumMean])
		c.Std = take(v.h[hdrNumStd])
		c.PCAMean = take(v.h[hdrNumPCAMean])
		for i := uint32(0); i < v.h[hdrPCARows]; i++ {
			c.PCACols = append(c.PCACols, take(v.h[hdrPCACols]))
		}
		c.Weights = take(v.h[hdrNumWeights])
		c.Bias = math.Float64frombits(binary.LittleEndian.Uint64(v.data[off:]))
		a.Classifier = c
	}
	return a
}

package pack

// An in-package gzip (RFC 1952) member writer over a DEFLATE (RFC 1951)
// encoder whose set-up cost scales with the value it compresses.
//
// compress/flate is built for streams: every Reset clears 640 KiB of hash
// tables and every block sorts the whole symbol alphabet through sort.Sort,
// so a 256-byte value pays for a 32 KiB window it never uses. Here the whole
// value is in memory, so LZ77 runs over the caller's slice directly (no
// window copy), the hash-head table is sized to the value, and only the
// symbols a block uses are sorted. Output is a standard gzip member that any
// inflater — compress/gzip's reader in particular — decodes.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/bits"
	"slices"
	"sync"
)

// Compression levels, with compress/gzip's numbering.
const (
	levelHuffmanOnly = -2
	levelDefault     = -1
	levelStore       = 0
	levelBestSpeed   = 1
	levelBest        = 9
)

const (
	windowSize     = 1 << 15
	minMatch       = 4 // shortest match emitted; the format allows 3
	maxMatch       = 258
	maxBlockTokens = 1 << 14
	maxStoredBlock = 65535
	maxHashBits    = 17
	minHashBits    = 6

	numLitCodes  = 286 // 256 literals, end of block, 29 length codes
	numDistCodes = 30
	numCLCodes   = 19 // code-length alphabet
	endOfBlock   = 256

	matchFlag = 1 << 31 // token: matchFlag | (length-3)<<16 | (offset-1)
)

// lzParams is one row of the per-level table: a match of at least good cuts
// the chain search to a quarter; a pending match of at least lazy is taken
// without looking one byte further; a match of nice ends the search; chain
// bounds the candidates tried. skip > 0 selects greedy parsing, and matches
// longer than skip are not hashed position by position. Levels 2-9 are
// compress/flate's rows; its level 1 is a separate fast encoder, here a
// greedy parse with a shorter chain.
type lzParams struct{ good, lazy, nice, chain, skip int }

var levelParams = [10]lzParams{
	1: {4, 0, 8, 4, 4},
	2: {4, 0, 16, 8, 5},
	3: {4, 0, 32, 32, 6},
	4: {4, 4, 16, 16, 0},
	5: {8, 16, 32, 32, 0},
	6: {8, 16, 128, 128, 0},
	7: {8, 32, 128, 256, 0},
	8: {32, 128, 258, 1024, 0},
	9: {32, 258, 258, 4096, 0},
}

// checkLevel validates a level the way gzip.NewWriterLevel does.
func checkLevel(level int) error {
	if level < levelHuffmanOnly || level > levelBest {
		return fmt.Errorf("gzip: invalid compression level: %d", level)
	}
	return nil
}

// encoder holds the reusable state of one compression. Every table grows to
// the largest value seen and is cleared only as far as the next value needs.
type encoder struct {
	head   []uint32 // hash of 4 bytes -> position+1 of its latest occurrence
	prev   []uint32 // position & mask -> position+1 of the previous one
	tokens []uint32
	// blockStart is where the input the buffered tokens encode begins.
	blockStart int

	litFreq  [numLitCodes]int32
	distFreq [numDistCodes]int32
	clFreq   [numCLCodes]int32

	litCode  [numLitCodes]uint32 // bit-reversed code | length<<16
	distCode [numDistCodes]uint32
	clCode   [numCLCodes]uint32

	sorted, radix [numLitCodes]uint32 // scratch for building Huffman codes

	lens [numLitCodes + numDistCodes]uint8 // code lengths, lit then dist
	rle  [numLitCodes + numDistCodes]uint8 // run-length coded lens

	out   []byte
	bits  uint64
	nbits uint
}

var encoders = sync.Pool{New: func() any { return new(encoder) }}

// appendGzip appends a complete gzip member holding src to dst.
func appendGzip(dst, src []byte, level int) []byte {
	e := encoders.Get().(*encoder)
	out := e.encode(dst, src, level, maxSegment)
	e.out = nil
	encoders.Put(e)
	return out
}

// encode appends a gzip member for src to dst, running LZ77 over at most
// segment bytes at a time.
func (e *encoder) encode(dst, src []byte, level, segment int) []byte {
	if level == levelDefault {
		level = 6
	}
	var xfl byte
	switch level {
	case levelBest:
		xfl = 2
	case levelBestSpeed:
		xfl = 4
	}
	// The header compress/gzip writes with no name, comment or mod time.
	e.out = append(dst, 0x1f, 0x8b, 8, 0, 0, 0, 0, 0, xfl, 255)
	e.bits, e.nbits = 0, 0
	switch level {
	case levelStore:
		e.storeAll(src)
	case levelHuffmanOnly:
		e.huffmanOnly(src)
	default:
		// Chain links are 32-bit positions, so LZ77 runs per segment.
		p := &levelParams[level]
		for rest := src; ; {
			seg := rest[:min(len(rest), segment)]
			rest = rest[len(seg):]
			e.prepare(len(seg))
			if p.skip > 0 {
				e.greedy(seg, p, len(rest) == 0)
			} else {
				e.lazy(seg, p, len(rest) == 0)
			}
			if len(rest) == 0 {
				break
			}
		}
	}
	e.alignByte()
	e.out = binary.LittleEndian.AppendUint32(e.out, crc32.ChecksumIEEE(src))
	return binary.LittleEndian.AppendUint32(e.out, uint32(len(src)))
}

// maxSegment bounds the input one LZ77 pass sees, keeping positions well
// inside the 32-bit chain links; matches never cross a segment boundary.
const maxSegment = 1 << 30

// prepare sizes and clears the match tables for an n-byte input: the head
// table holds about one slot per input byte (capped), the chain one slot per
// position inside the window.
func (e *encoder) prepare(n int) {
	hn := 1 << min(max(bits.Len(uint(n)), minHashBits), maxHashBits)
	if cap(e.head) < hn {
		e.head = make([]uint32, hn)
	}
	e.head = e.head[:hn]
	clear(e.head)
	pn := min(1<<bits.Len(uint(n)), windowSize)
	if cap(e.prev) < pn {
		e.prev = make([]uint32, pn)
	}
	e.prev = e.prev[:pn] // entries are written before they are read
	e.prepareTokens(n)
}

// prepareTokens empties the token buffer, sized for an n-byte input.
func (e *encoder) prepareTokens(n int) {
	if nt := min(n+1, maxBlockTokens); cap(e.tokens) < nt {
		e.tokens = make([]uint32, 0, nt)
	}
	e.tokens = e.tokens[:0]
	e.blockStart = 0
}

func load32(b []byte, i int) uint32 { return binary.LittleEndian.Uint32(b[i:]) }

// hash4 hashes four bytes to maxHashBits bits; tables smaller than that
// use the low bits.
func hash4(u uint32) uint32 { return (u * 0x1e35a7bd) >> (32 - maxHashBits) }

// matchLen returns how many leading bytes a and b share, reading at most
// len(b) bytes; a must be at least as long as b.
func matchLen(a, b []byte) int {
	n := 0
	for len(b)-n >= 8 {
		if x := binary.LittleEndian.Uint64(a[n:]) ^ binary.LittleEndian.Uint64(b[n:]); x != 0 {
			return n + bits.TrailingZeros64(x)>>3
		}
		n += 8
	}
	for n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}

// findMatch walks the hash chain from cand for a match at pos longer than
// length, returning the best length and offset (offset 0 when there is
// none). Matches of exactly minMatch bytes further back than 4 KiB cost
// more than their literals and are not taken.
func (e *encoder) findMatch(src []byte, pos, cand, length int, p *lzParams) (int, int) {
	look := min(len(src)-pos, maxMatch)
	nice := min(p.nice, look)
	tries := p.chain
	if length >= p.good {
		tries >>= 2
	}
	minPos := pos - windowSize
	want := src[pos : pos+look]
	first := load32(src, pos)
	offset := 0
	prev := e.prev
	mask := len(prev) - 1
	for i := cand; ; {
		if src[i+length] == want[length] && load32(src, i) == first {
			if n := matchLen(src[i:], want); n > length && (n > minMatch || pos-i <= 4096) {
				length, offset = n, pos-i
				if n >= nice {
					break
				}
			}
		}
		if tries--; tries == 0 || i == minPos {
			break
		}
		// An empty link reads as -1.
		if i = int(prev[i&mask]) - 1; i < minPos || i < 0 {
			break
		}
	}
	return length, offset
}

// insert adds positions [from, to) to the hash chains.
func (e *encoder) insert(src []byte, from, to int) {
	head, prev := e.head, e.prev
	hmask, mask := uint32(len(head)-1), len(prev)-1
	i := from
	// Four positions per 8-byte load while the load stays inside src.
	for ; i+4 <= to && i+8 <= len(src); i += 4 {
		x := binary.LittleEndian.Uint64(src[i:])
		h := hash4(uint32(x)) & hmask
		prev[i&mask] = head[h]
		head[h] = uint32(i + 1)
		h = hash4(uint32(x>>8)) & hmask
		prev[(i+1)&mask] = head[h]
		head[h] = uint32(i + 2)
		h = hash4(uint32(x>>16)) & hmask
		prev[(i+2)&mask] = head[h]
		head[h] = uint32(i + 3)
		h = hash4(uint32(x>>24)) & hmask
		prev[(i+3)&mask] = head[h]
		head[h] = uint32(i + 4)
	}
	for ; i < to; i++ {
		h := hash4(load32(src, i)) & hmask
		prev[i&mask] = head[h]
		head[h] = uint32(i + 1)
	}
}

// insert1 adds pos to the hash chains and returns the position it now
// links to (-1 for none).
func (e *encoder) insert1(src []byte, pos int) int {
	h := hash4(load32(src, pos)) & uint32(len(e.head)-1)
	c := e.head[h]
	e.prev[pos&(len(e.prev)-1)] = c
	e.head[h] = uint32(pos + 1)
	return int(c) - 1
}

// lazy is the LZ77 parse of levels 4-9: a match found at pos is held back
// one byte in case pos+1 starts a longer one.
func (e *encoder) lazy(src []byte, p *lzParams, final bool) {
	n := len(src)
	lastHashed := n - minMatch // last position with 4 bytes to hash
	length, offset := minMatch-1, 0
	pending := false // a literal for src[pos-1] is owed
	for pos := 0; pos < n; {
		if len(e.tokens) == maxBlockTokens {
			// This step emits at most one token, starting at the owed
			// literal if there is one.
			e.flush(src, pos-int(b2u(pending)))
		}
		prevLength, prevOffset := length, offset
		length, offset = minMatch-1, 0
		if pos <= lastHashed {
			cand := e.insert1(src, pos)
			if cand >= 0 && cand >= pos-windowSize && n-pos > prevLength && prevLength < p.lazy {
				if l, o := e.findMatch(src, pos, cand, prevLength, p); o != 0 {
					length, offset = l, o
				}
			}
		}
		if prevLength >= minMatch && length <= prevLength {
			start := pos - 1
			e.match(prevLength, prevOffset)
			// Hash every position the match covers; start and pos already are.
			end := start + prevLength
			e.insert(src, pos+1, min(end, lastHashed+1))
			pos = end
			pending = false
			length = minMatch - 1
			continue
		}
		if pending {
			e.literal(src, pos-1)
		}
		pending = true
		pos++
	}
	if pending {
		if len(e.tokens) == maxBlockTokens {
			e.flush(src, n-1)
		}
		e.literal(src, n-1)
	}
	e.writeBlock(src[e.blockStart:], final)
}

// greedy is the LZ77 parse of levels 1-3: the first acceptable match is
// taken at once.
func (e *encoder) greedy(src []byte, p *lzParams, final bool) {
	n := len(src)
	lastHashed := n - minMatch
	for pos := 0; pos < n; {
		if len(e.tokens) == maxBlockTokens {
			e.flush(src, pos)
		}
		length, offset := 0, 0
		if pos <= lastHashed {
			cand := e.insert1(src, pos)
			if cand >= 0 && cand >= pos-windowSize {
				length, offset = e.findMatch(src, pos, cand, minMatch-1, p)
			}
		}
		if offset == 0 {
			e.literal(src, pos)
			pos++
			continue
		}
		e.match(length, offset)
		end := pos + length
		if length <= p.skip {
			e.insert(src, pos+1, min(end, lastHashed+1))
		}
		pos = end
	}
	e.writeBlock(src[e.blockStart:], final)
}

// huffmanOnly entropy-codes src as literals, without LZ77.
func (e *encoder) huffmanOnly(src []byte) {
	e.prepareTokens(len(src))
	for i := range src {
		if len(e.tokens) == maxBlockTokens {
			e.flush(src, i)
		}
		e.literal(src, i)
	}
	e.writeBlock(src[e.blockStart:], true)
}

// literal appends src[i] to the block as a literal token. Callers flush
// a full block first, here and in match.
func (e *encoder) literal(src []byte, i int) {
	c := src[i]
	e.litFreq[c]++
	e.tokens = append(e.tokens, uint32(c))
}

// match appends a match of length bytes from offset bytes back.
func (e *encoder) match(length, offset int) {
	xl, xo := uint32(length-3), uint32(offset-1)
	e.litFreq[257+int(lengthCode[xl])]++
	e.distFreq[distCode(xo)]++
	e.tokens = append(e.tokens, matchFlag|xl<<16|xo)
}

// flush writes the full token buffer, which encodes src[e.blockStart:end],
// as a non-final block.
func (e *encoder) flush(src []byte, end int) {
	e.writeBlock(src[e.blockStart:end], false)
	e.blockStart = end
}

// storeAll writes src as stored blocks (level 0).
func (e *encoder) storeAll(src []byte) {
	for {
		chunk := src[:min(len(src), maxStoredBlock)]
		src = src[len(chunk):]
		e.writeStored(chunk, len(src) == 0)
		if len(src) == 0 {
			return
		}
	}
}

// --- block writer ---

// writeBlock emits e.tokens, which encode raw, as the smallest of a stored,
// fixed-Huffman or dynamic-Huffman block, and resets the histograms.
func (e *encoder) writeBlock(raw []byte, final bool) {
	e.litFreq[endOfBlock]++
	nLit := numLitCodes
	for e.litFreq[nLit-1] == 0 {
		nLit--
	}
	nDist := numDistCodes
	for nDist > 0 && e.distFreq[nDist-1] == 0 {
		nDist--
	}

	// Extra bits cost the same under either Huffman block type.
	extra := 0
	for c := 265; c < nLit; c++ {
		extra += int(e.litFreq[c]) * int(lengthExtra[c-257])
	}
	for c := 4; c < nDist; c++ {
		extra += int(e.distFreq[c]) * int(distExtra[c])
	}
	fixedBits := 3 + extra
	for c, f := range e.litFreq[:nLit] {
		fixedBits += int(f) * int(fixedLitCode[c]>>16)
	}
	for _, f := range e.distFreq[:nDist] {
		fixedBits += 5 * int(f)
	}

	// Dynamic: an empty distance tree is written as one unused code.
	if nDist == 0 {
		e.distFreq[0] = 1
		nDist = 1
	}
	e.buildCode(e.litFreq[:nLit], e.lens[:nLit], e.litCode[:nLit], 15)
	e.buildCode(e.distFreq[:nDist], e.lens[nLit:nLit+nDist], e.distCode[:nDist], 15)
	nRLE := e.runLengths(e.lens[:nLit+nDist])
	var clLens [numCLCodes]uint8
	e.buildCode(e.clFreq[:], clLens[:], e.clCode[:], 7)
	nCL := numCLCodes
	for nCL > 4 && clLens[clOrder[nCL-1]] == 0 {
		nCL--
	}
	dynBits := 3 + 5 + 5 + 4 + 3*nCL + extra +
		2*int(e.clFreq[16]) + 3*int(e.clFreq[17]) + 7*int(e.clFreq[18])
	for c, f := range e.clFreq {
		dynBits += int(f) * int(clLens[c])
	}
	for c, f := range e.litFreq[:nLit] {
		dynBits += int(f) * int(e.lens[c])
	}
	for c, f := range e.distFreq[:nDist] {
		dynBits += int(f) * int(e.lens[nLit+c])
	}

	storedBits := -1
	if len(raw) <= maxStoredBlock {
		storedBits = 3 + int((8-(e.nbits+3)%8)%8) + 32 + 8*len(raw)
	}

	switch {
	case storedBits >= 0 && storedBits <= min(fixedBits, dynBits):
		e.writeStored(raw, final)
	case fixedBits <= dynBits:
		e.reserve(fixedBits)
		e.writeBits(b2u(final)|1<<1, 3)
		e.writeTokens(fixedLitCode[:], fixedDistCode[:])
	default:
		e.reserve(dynBits)
		e.writeBits(b2u(final)|2<<1, 3)
		e.writeBits(uint64(nLit-257), 5)
		e.writeBits(uint64(nDist-1), 5)
		e.writeBits(uint64(nCL-4), 4)
		for _, c := range clOrder[:nCL] {
			e.writeBits(uint64(clLens[c]), 3)
		}
		for i := 0; i < nRLE; i++ {
			c := e.rle[i]
			e.writeCode(e.clCode[c])
			switch c {
			case 16:
				i++
				e.writeBits(uint64(e.rle[i]), 2)
			case 17:
				i++
				e.writeBits(uint64(e.rle[i]), 3)
			case 18:
				i++
				e.writeBits(uint64(e.rle[i]), 7)
			}
		}
		e.writeTokens(e.litCode[:], e.distCode[:])
	}
	clear(e.litFreq[:])
	clear(e.distFreq[:])
	e.tokens = e.tokens[:0]
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// writeTokens emits e.tokens and the end-of-block code. The caller has
// reserved room for them.
func (e *encoder) writeTokens(lit, dist []uint32) {
	lit, dist = lit[:numLitCodes], dist[:numDistCodes]
	out, bitbuf, nbits := e.out, e.bits, e.nbits
	for _, t := range e.tokens {
		if t < matchFlag {
			c := lit[uint8(t)]
			bitbuf |= uint64(uint16(c)) << nbits
			nbits += uint(c >> 16)
		} else {
			xl := uint8(t >> 16)
			lc := lengthCode[xl]
			c := lit[257+int(lc)]
			bitbuf |= uint64(uint16(c)) << nbits
			nbits += uint(c >> 16)
			bitbuf |= uint64(uint32(xl)-uint32(lengthBase[lc])) << nbits
			nbits += uint(lengthExtra[lc])
			xo := uint32(uint16(t))
			dc := distCode(xo)
			c = dist[dc]
			bitbuf |= uint64(uint16(c)) << nbits
			nbits += uint(c >> 16)
			bitbuf |= uint64(xo-distBase[dc]) << nbits
			nbits += uint(distExtra[dc])
		}
		// At most 7 bits stay pending, and one token adds at most 48.
		n := len(out)
		binary.LittleEndian.PutUint64(out[n:n+8], bitbuf)
		out = out[:n+int(nbits>>3)]
		bitbuf >>= nbits &^ 7
		nbits &= 7
	}
	e.out, e.bits, e.nbits = out, bitbuf, nbits
	e.writeCode(lit[endOfBlock])
}

// writeStored emits raw as one stored block.
func (e *encoder) writeStored(raw []byte, final bool) {
	e.writeBits(b2u(final), 3)
	e.alignByte()
	n := uint16(len(raw))
	e.out = append(e.out, byte(n), byte(n>>8), byte(^n), byte(^n>>8))
	e.out = append(e.out, raw...)
}

// reserve makes room for nbits more output bits plus the 8-byte slack
// writeTokens stores into.
func (e *encoder) reserve(nbits int) {
	e.out = slices.Grow(e.out, nbits/8+16)
}

func (e *encoder) writeBits(v uint64, n uint) {
	e.bits |= v << e.nbits
	e.nbits += n
	for e.nbits >= 8 {
		e.out = append(e.out, byte(e.bits))
		e.bits >>= 8
		e.nbits -= 8
	}
}

func (e *encoder) writeCode(c uint32) { e.writeBits(uint64(uint16(c)), uint(c>>16)) }

func (e *encoder) alignByte() {
	if e.nbits > 0 {
		e.out = append(e.out, byte(e.bits))
	}
	e.bits, e.nbits = 0, 0
}

// --- Huffman codes ---

// runLengths run-length codes lens with the code-length alphabet (RFC 1951
// §3.2.7) into e.rle, counting symbols in e.clFreq; it returns the length
// of the coded sequence. Repeat counts follow their symbols in e.rle.
func (e *encoder) runLengths(lens []uint8) int {
	clear(e.clFreq[:])
	n := 0
	emit := func(c uint8) {
		e.rle[n] = c
		n++
		e.clFreq[c]++
	}
	for i := 0; i < len(lens); {
		l := lens[i]
		run := 1
		for i+run < len(lens) && lens[i+run] == l {
			run++
		}
		i += run
		if l == 0 {
			for run >= 11 {
				r := min(run, 138)
				emit(18)
				e.rle[n] = uint8(r - 11)
				n++
				run -= r
			}
			if run >= 3 {
				emit(17)
				e.rle[n] = uint8(run - 3)
				n++
				run = 0
			}
		} else if run >= 4 {
			emit(l)
			run--
			for run >= 3 {
				r := min(run, 6)
				emit(16)
				e.rle[n] = uint8(r - 3)
				n++
				run -= r
			}
		}
		for ; run > 0; run-- {
			emit(l)
		}
	}
	return n
}

// buildCode fills lens with length-limited Huffman code lengths for freq
// and codes with the matching canonical codes, bit-reversed for LSB-first
// output. A lone used symbol gets a 1-bit code, as inflaters require.
func (e *encoder) buildCode(freq []int32, lens []uint8, codes []uint32, maxBits int) {
	clear(lens)
	s := e.sorted[:0]
	for sym, f := range freq {
		if f != 0 {
			s = append(s, uint32(f)<<9|uint32(sym))
		}
	}
	switch {
	case len(s) == 1:
		lens[s[0]&511] = 1
	case len(s) > 1:
		sortSymbols(s, e.radix[:len(s)])
		huffmanLengths(s, lens, e.radix[:len(s)], maxBits)
	}
	canonical(lens, codes)
}

// sortSymbols sorts s (freq<<9 | symbol) by frequency, then symbol: by
// insertion when short, else by an LSD radix sort on the frequency's two
// bytes (a block's frequencies stay below 1<<16). tmp is scratch of the
// same length.
func sortSymbols(s, tmp []uint32) {
	if len(s) <= 32 {
		for i := 1; i < len(s); i++ {
			for j := i; j > 0 && s[j] < s[j-1]; j-- {
				s[j], s[j-1] = s[j-1], s[j]
			}
		}
		return
	}
	var lo, hi [256]uint16
	for _, v := range s {
		lo[uint8(v>>9)]++
		hi[uint8(v>>17)]++
	}
	var sum uint16
	for i, c := range lo {
		lo[i] = sum
		sum += c
	}
	for _, v := range s {
		d := uint8(v >> 9)
		tmp[lo[d]] = v
		lo[d]++
	}
	if int(hi[0]) == len(s) {
		copy(s, tmp)
		return
	}
	sum = 0
	for i, c := range hi {
		hi[i] = sum
		sum += c
	}
	for _, v := range tmp {
		d := uint8(v >> 17)
		s[hi[d]] = v
		hi[d]++
	}
}

// huffmanLengths sets lens for the symbols in s (freq<<9 | symbol, sorted
// by frequency; a is scratch of the same length) using Moffat and
// Katajainen's in-place minimum-redundancy algorithm, then limits the
// lengths to maxBits by moving codes down the tree until the Kraft sum is
// exact again.
func huffmanLengths(s []uint32, lens []uint8, a []uint32, maxBits int) {
	n := len(s)
	for i, v := range s {
		a[i] = v >> 9
	}
	a[0] += a[1]
	root, leaf := 0, 2
	for next := 1; next < n-1; next++ {
		if leaf >= n || a[root] < a[leaf] {
			a[next] = a[root]
			a[root] = uint32(next)
			root++
		} else {
			a[next] = a[leaf]
			leaf++
		}
		if leaf >= n || (root < next && a[root] < a[leaf]) {
			a[next] += a[root]
			a[root] = uint32(next)
			root++
		} else {
			a[next] += a[leaf]
			leaf++
		}
	}
	a[n-2] = 0
	for next := n - 3; next >= 0; next-- {
		a[next] = a[a[next]] + 1
	}
	avail, used, depth := 1, 0, uint32(0)
	root, next := n-2, n-1
	for avail > 0 {
		for root >= 0 && a[root] == depth {
			used++
			root--
		}
		for avail > used {
			a[next] = depth
			next--
			avail--
		}
		avail, used = 2*used, 0
		depth++
	}

	// a[i] is now the length for s[i], longest first.
	var count [16]int
	over := false
	for _, l := range a {
		if int(l) > maxBits {
			l, over = uint32(maxBits), true
		}
		count[l]++
	}
	if over {
		total := 0
		for l := 1; l <= maxBits; l++ {
			total += count[l] << (maxBits - l)
		}
		for ; total > 1<<maxBits; total-- {
			count[maxBits]--
			for l := maxBits - 1; l > 0; l-- {
				if count[l] > 0 {
					count[l]--
					count[l+1] += 2
					break
				}
			}
		}
	}
	i := n
	for l := 1; l <= maxBits; l++ {
		for c := count[l]; c > 0; c-- {
			i--
			lens[s[i]&511] = uint8(l)
		}
	}
}

// canonical assigns RFC 1951 canonical codes to lens, stored bit-reversed
// with the length in bits 16 and up.
func canonical(lens []uint8, codes []uint32) {
	var count [16]uint16
	for _, l := range lens {
		count[l]++
	}
	count[0] = 0
	var next [16]uint16
	code := uint16(0)
	for l := 1; l < 16; l++ {
		code = (code + count[l-1]) << 1
		next[l] = code
	}
	for sym, l := range lens {
		if l == 0 {
			codes[sym] = 0
			continue
		}
		c := next[l]
		next[l]++
		codes[sym] = uint32(bits.Reverse16(c)>>(16-l)) | uint32(l)<<16
	}
}

// --- RFC 1951 tables ---

var clOrder = [numCLCodes]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}

var lengthBase = [29]uint8{
	0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 14, 16, 20, 24, 28, 32, 40, 48, 56,
	64, 80, 96, 112, 128, 160, 192, 224, 255,
}

var lengthExtra = [29]uint8{
	0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3,
	4, 4, 4, 4, 5, 5, 5, 5, 0,
}

var distBase = [numDistCodes]uint32{
	0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192,
	256, 384, 512, 768, 1024, 1536, 2048, 3072, 4096, 6144, 8192, 12288, 16384, 24576,
}

var distExtra = [numDistCodes]uint8{
	0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8,
	9, 9, 10, 10, 11, 11, 12, 12, 13, 13,
}

var (
	lengthCode    [256]uint8 // length-3 -> length code - 257
	distCodeSmall [512]uint8 // offset-1 -> distance code, for offsets ≤ 512
	distCodeLarge [256]uint8 // (offset-1)>>7 -> distance code, above that

	fixedLitCode  [288]uint32
	fixedDistCode [numDistCodes]uint32
)

func distCode(xo uint32) uint8 {
	if xo < uint32(len(distCodeSmall)) {
		return distCodeSmall[xo]
	}
	return distCodeLarge[uint8(xo>>7)]
}

func init() {
	for c := 0; c < 28; c++ {
		for xl := int(lengthBase[c]); xl < int(lengthBase[c])+1<<lengthExtra[c]; xl++ {
			lengthCode[xl] = uint8(c)
		}
	}
	lengthCode[255] = 28
	for c := 0; c < numDistCodes; c++ {
		for xo := distBase[c]; xo < distBase[c]+1<<distExtra[c]; xo++ {
			if xo < uint32(len(distCodeSmall)) {
				distCodeSmall[xo] = uint8(c)
			}
			distCodeLarge[uint8(xo>>7)] = uint8(c)
		}
	}

	var lens [288]uint8
	for i := range lens {
		switch {
		case i < 144:
			lens[i] = 8
		case i < 256:
			lens[i] = 9
		case i < 280:
			lens[i] = 7
		default:
			lens[i] = 8
		}
	}
	canonical(lens[:], fixedLitCode[:])
	var dl [numDistCodes]uint8
	for i := range dl {
		dl[i] = 5
	}
	canonical(dl[:], fixedDistCode[:])
}

// Package dram provides the off-chip memory substrate: a word-addressed
// backing store holding the architectural value of every memory location,
// and a GDDR5-like timing model — per-channel bandwidth queueing over
// banked devices with open-row buffers (a row hit costs column access
// only; a row miss pays precharge + activate).
//
// The store is one image of the 32-bit address space, held as 64-line
// blocks in address order. The fine-grain region table is part of it
// like any other memory, as in the paper (§3.4), where the home reads and
// writes the table through the L3.
//
// The paper's simulator uses a cycle-accurate GDDR5 model; this model
// keeps the two effects the evaluation depends on — channel queueing
// under load and row-locality sensitivity — without modelling individual
// command buses. The substitution is documented in DESIGN.md.
package dram

import (
	"fmt"
	"iter"
	"math/bits"

	"cohesion/internal/addr"
	"cohesion/internal/event"
	"cohesion/internal/stats"
)

// Store geometry: 256 regions of 16 MiB span the 32-bit address space; a
// region is 128 chunks of 64 blocks of 64 lines.
const (
	blockShift  = 11 // a block is 64 lines, 2 KiB
	chunkShift  = 17 // a chunk is 64 blocks, 128 KiB
	regionShift = 24 // a region is 128 chunks, 16 MiB

	blockLines   = 1 << (blockShift - addr.LineShift)
	blockWords   = blockLines * addr.WordsPerLine
	blockBytes   = 1 << blockShift
	chunkBlocks  = 1 << (chunkShift - blockShift)
	regionChunks = 1 << (regionShift - chunkShift)
)

// Store holds the architectural contents of memory, one 32-bit word at a
// time. Lines never written read as zero and are not part of the image.
//
// Memory is a three-level table of 64-line blocks: regions, then chunks,
// then blocks, each level allocated on the first write into it. A block
// holds one pattern word, zero unless FillTable painted the block, and
// copies its 512 words out only when a write stores a value different
// from the pattern. Cohesion paints the region table over the whole
// incoherent heap at load time, 32,768 lines repeating one word, so the
// preset costs 512 block headers instead of 1 MiB of words, and
// Fingerprint folds each such line in a few multiplies. Lines and
// Fingerprint walk the blocks in address order; a line belongs to the
// image from its first write, even of zero.
//
// Addresses must fit in 32 bits, as addr.Addr requires: the top level is
// indexed by a >> 24, so a larger address panics with an index out of
// range. Every address the store sees comes from the machine's own
// segment layout, none from outside input.
type Store struct {
	regions [1 << (32 - regionShift)]*[regionChunks]*[chunkBlocks]block
}

// block is 64 lines of memory. While words is nil every word of the
// block reads as pattern. written has one bit per line: the line has been
// stored to and so belongs to the image. pattern is nonzero only on a
// block FillTable painted, which is fully written, so an unwritten line
// always reads as zero.
type block struct {
	written uint64
	pattern uint32
	words   *[blockWords]uint32
}

// word returns word w of the block.
func (b *block) word(w int) uint32 {
	if b.words == nil {
		return b.pattern
	}
	return b.words[w]
}

// write stores v into word w, copying the pattern out on the first write
// of a different value.
func (b *block) write(w int, v uint32) {
	b.written |= 1 << (w / addr.WordsPerLine)
	if b.words == nil {
		if v == b.pattern {
			return
		}
		b.words = new([blockWords]uint32)
		for i := range b.words {
			b.words[i] = b.pattern
		}
	}
	b.words[w] = v
}

// line copies line j of the block.
func (b *block) line(j int) (out [addr.WordsPerLine]uint32) {
	for i := range out {
		out[i] = b.word(j*addr.WordsPerLine + i)
	}
	return out
}

// uniform reports whether every line of the block is written and every
// word still holds the pattern, as after FillTable. Fingerprint folds
// such a block through its pattern's lane table.
func (b *block) uniform() bool { return b.written == ^uint64(0) && b.words == nil }

// NewStore returns an empty memory image.
func NewStore() *Store { return &Store{} }

// readBlock returns a copy of the block holding address a, for reading:
// the zero block (no line written, every word zero) where its region or
// chunk is unallocated.
func (s *Store) readBlock(a addr.Addr) block {
	if r := s.regions[a>>regionShift]; r != nil {
		if c := r[a>>chunkShift%regionChunks]; c != nil {
			return c[a>>blockShift%chunkBlocks]
		}
	}
	return block{}
}

// writeBlock returns the block holding address a, allocating its region
// and chunk on first use.
func (s *Store) writeBlock(a addr.Addr) *block {
	r := s.regions[a>>regionShift]
	if r == nil {
		r = new([regionChunks]*[chunkBlocks]block)
		s.regions[a>>regionShift] = r
	}
	c := r[a>>chunkShift%regionChunks]
	if c == nil {
		c = new([chunkBlocks]block)
		r[a>>chunkShift%regionChunks] = c
	}
	return &c[a>>blockShift%chunkBlocks]
}

// blocks yields the blocks of every allocated chunk with their indices
// (address >> 11), in address order.
func (s *Store) blocks() iter.Seq2[int, *block] {
	return func(yield func(int, *block) bool) {
		for ri, r := range &s.regions {
			if r == nil {
				continue
			}
			for ci, c := range r {
				if c == nil {
					continue
				}
				for j := range c {
					if !yield((ri*regionChunks+ci)*chunkBlocks+j, &c[j]) {
						return
					}
				}
			}
		}
	}
}

// ReadWord returns the word containing address a.
func (s *Store) ReadWord(a addr.Addr) uint32 {
	b := s.readBlock(a)
	return b.word(int(a>>addr.WordShift) % blockWords)
}

// WriteWord stores v into the word containing address a.
func (s *Store) WriteWord(a addr.Addr, v uint32) {
	s.writeBlock(a).write(int(a>>addr.WordShift)%blockWords, v)
}

// FillTable stores v into every word of r, which must cover whole 64-line
// blocks (2 KiB-aligned base and size). Each block becomes fully written
// and holds v as its pattern, dropping any words a differing write had
// copied out.
func (s *Store) FillTable(r addr.Range, v uint32) {
	if r.Base%blockBytes != 0 || r.Size%blockBytes != 0 {
		panic(fmt.Sprintf("dram: FillTable range %v is not whole blocks", r))
	}
	for a := r.Base; a < r.End(); a += blockBytes {
		*s.writeBlock(a) = block{written: ^uint64(0), pattern: v}
	}
}

// ReadLine copies the full contents of a line.
func (s *Store) ReadLine(line addr.Line) [addr.WordsPerLine]uint32 {
	b := s.readBlock(line.Base())
	return b.line(int(line % blockLines))
}

// MergeLine writes back the words of data selected by mask (bit i = word i),
// leaving other words untouched. This implements the paper's per-word
// dirty-bit merge that lets the L3 combine disjoint write sets from
// multiple SWcc writers.
func (s *Store) MergeLine(line addr.Line, mask uint8, data [addr.WordsPerLine]uint32) {
	if mask == 0 {
		return
	}
	b := s.writeBlock(line.Base())
	w0 := int(line%blockLines) * addr.WordsPerLine
	for w := 0; w < addr.WordsPerLine; w++ {
		if mask&(1<<w) != 0 {
			b.write(w0+w, data[w])
		}
	}
}

// Lines returns every written line in address order.
func (s *Store) Lines() []addr.Line {
	var lines []addr.Line
	for bi, b := range s.blocks() {
		for w := b.written; w != 0; w &= w - 1 {
			lines = append(lines, addr.Line(bi*blockLines+bits.TrailingZeros64(w)))
		}
	}
	return lines
}

// fnv64Prime and fnv64Offset are the FNV-1a constants for the fingerprint.
const (
	fnv64Prime  = 1099511628211
	fnv64Offset = 14695981039346656037
)

// Powers of fnv64Prime mod 2^64. Mixing a zero byte is h = (h^0)*p =
// h*p, so a run of four zero bytes is one multiply by fnv64Prime4, and a
// line's eight widened words are 64 byte steps.
const (
	fnv64Prime4  = fnv64Prime * fnv64Prime * fnv64Prime * fnv64Prime % (1 << 64)
	fnv64Prime16 = fnv64Prime4 * fnv64Prime4 * fnv64Prime4 * fnv64Prime4 % (1 << 64)
	fnv64Prime64 = fnv64Prime16 * fnv64Prime16 * fnv64Prime16 * fnv64Prime16 % (1 << 64)
)

// mixLine folds one line (its number, then its eight words) into the
// running FNV-1a state. The digest is defined byte by byte,
// little-endian, with both the line number and each word widened to
// eight bytes; the zero upper halves collapse into multiplies by
// fnv64Prime4, which is bit-identical to the byte loop and roughly
// halves the serial chain (every finalize and checkpoint mixes every
// written line outside uniform blocks, so this is hot).
func mixLine(h uint64, line addr.Line, words *[addr.WordsPerLine]uint32) uint64 {
	return mixWords(mixNumber(h, line), words)
}

// mixNumber folds a line number into h.
func mixNumber(h uint64, line addr.Line) uint64 {
	v := uint64(line)
	for i := 0; i < 4; i++ {
		h ^= v & 0xff
		h *= fnv64Prime
		v >>= 8
	}
	if v == 0 { // always, in a 32-bit address space
		return h * fnv64Prime4
	}
	for i := 0; i < 4; i++ {
		h ^= v & 0xff
		h *= fnv64Prime
		v >>= 8
	}
	return h
}

// mixWords folds a line's eight words into h.
func mixWords(h uint64, words *[addr.WordsPerLine]uint32) uint64 {
	for _, w := range words {
		v := uint64(w)
		for i := 0; i < 4; i++ {
			h ^= v & 0xff
			h *= fnv64Prime
			v >>= 8
		}
		h *= fnv64Prime4 // bytes 4..7 of the widened word are zero
	}
	return h
}

// patternLane folds the eight words of a line that all hold pattern in
// one step: mixWords(h, pattern) = h*fnv64Prime64 + add[h&0xff].
//
// The identity holds because FNV-1a is affine per low-byte lane. A byte
// step is h' = (h^b)*p, and since b < 256 the xor only disturbs the low
// byte: h^b = h + d, where d = (lo^b) - lo depends on h's low byte lo
// alone. The low byte evolves on its own (lo' = (lo^b)*p mod 256), so a
// fixed byte sequence of length n maps h to h*p^n + C[lo] for a table C
// that depends only on the sequence, here the pattern. Evaluating the
// byte loop at the representative h = lo gives C[lo] = mixWords(lo) -
// lo*p^64.
//
// The table is 2 KiB, takes 256 word folds to build, and depends on the
// pattern alone, so Fingerprint builds it for the call and keeps nothing
// between calls.
type patternLane struct {
	pattern uint32
	add     [256]uint64
}

// build makes l the lane table of pattern.
func (l *patternLane) build(pattern uint32) {
	var words [addr.WordsPerLine]uint32
	for i := range words {
		words[i] = pattern
	}
	l.pattern = pattern
	for lo := range l.add {
		l.add[lo] = mixWords(uint64(lo), &words) - uint64(lo)*fnv64Prime64
	}
}

// Fingerprint digests the full memory image (FNV-1a over the written
// lines in address order): equal images yield equal fingerprints.
// Determinism tests use it to compare whole runs cheaply. A uniform
// block (the Cohesion preset paints the table in whole blocks) folds
// each line's number byte by byte and its eight words in one patternLane
// step, six multiplies a line instead of 45. Each distinct pattern's
// table is built once per call; the first two sit in the frame, which
// covers the simulator's images (zero-filled heap blocks and the preset's
// ^0). Every other block is mixed line by line with the concrete running
// state, so the result is bit-identical either way.
func (s *Store) Fingerprint() uint64 {
	lanes := make([]patternLane, 0, 2)
	h := uint64(fnv64Offset)
	for bi, b := range s.blocks() {
		if b.uniform() {
			i := 0
			for i < len(lanes) && lanes[i].pattern != b.pattern {
				i++
			}
			if i == len(lanes) {
				lanes = append(lanes, patternLane{})
				lanes[i].build(b.pattern)
			}
			add := &lanes[i].add
			for l := addr.Line(bi * blockLines); l < addr.Line((bi+1)*blockLines); l++ {
				h = mixNumber(h, l)
				h = h*fnv64Prime64 + add[h&0xff]
			}
			continue
		}
		for w := b.written; w != 0; w &= w - 1 {
			j := bits.TrailingZeros64(w)
			line := b.line(j)
			h = mixLine(h, addr.Line(bi*blockLines+j), &line)
		}
	}
	return h
}

// Device geometry: a 2 KB row (the paper's footnote strides the address
// space across controllers at DRAM-row granularity, addr[10..0] within a
// row) and sixteen banks per channel.
const (
	rowShift        = 11 // log2(2 KB row)
	BanksPerChannel = 16
)

// Controller models the DRAM channels' timing. Each channel is a FIFO
// resource (a line transfer occupies it for OccupancyCycles); each of its
// banks keeps one row open — a transfer to the open row completes after
// the row-hit latency, any other row pays the full access latency.
type Controller struct {
	q               *event.Queue
	run             *stats.Run
	missLatency     event.Cycle // precharge + activate + CAS
	hitLatency      event.Cycle // CAS only (open row)
	occupancy       event.Cycle
	banksPerChannel int // L3 banks per channel
	nextFree        []event.Cycle
	openRow         [][]uint64 // [channel][dramBank] -> open row id + 1 (0 = none)

	// RowHits/RowMisses report the row-buffer behaviour of the run.
	RowHits, RowMisses uint64
}

// NewController builds a timing model with the given channel count, the
// number of L3 banks feeding each channel, the row-miss access latency,
// and per-line channel occupancy (all in cycles). The row-hit latency is
// half the miss latency, floor 1.
func NewController(q *event.Queue, run *stats.Run, channels, l3Banks, latency, occupancy int) *Controller {
	if channels < 1 || l3Banks < channels || l3Banks%channels != 0 {
		panic("dram: bad channel/bank geometry")
	}
	hit := latency / 2
	if hit < 1 {
		hit = 1
	}
	c := &Controller{
		q:               q,
		run:             run,
		missLatency:     event.Cycle(latency),
		hitLatency:      event.Cycle(hit),
		occupancy:       event.Cycle(occupancy),
		banksPerChannel: l3Banks / channels,
		nextFree:        make([]event.Cycle, channels),
		openRow:         make([][]uint64, channels),
	}
	for i := range c.openRow {
		c.openRow[i] = make([]uint64, BanksPerChannel)
	}
	return c
}

// ChannelForBank maps an L3 bank to its DRAM channel (four banks per
// channel in the Table 3 configuration).
func (c *Controller) ChannelForBank(bank int) int { return bank / c.banksPerChannel }

// Access schedules a line read or write from the given L3 bank and runs
// done when the transfer completes. Timing only; data movement is the
// caller's job via Store.
func (c *Controller) Access(bank int, line addr.Line, write bool, done func()) {
	ch := c.ChannelForBank(bank)
	start := c.q.Now()
	if c.nextFree[ch] > start {
		start = c.nextFree[ch]
	}
	c.nextFree[ch] = start + c.occupancy

	rowID := uint64(line.Base()) >> rowShift
	dramBank := int(rowID % BanksPerChannel)
	row := rowID/BanksPerChannel + 1 // +1 so 0 means "no open row"
	latency := c.missLatency
	if c.openRow[ch][dramBank] == row {
		latency = c.hitLatency
		c.RowHits++
	} else {
		c.openRow[ch][dramBank] = row
		c.RowMisses++
	}

	if c.run != nil {
		if write {
			c.run.DRAMWrites++
		} else {
			c.run.DRAMReads++
		}
	}
	c.q.At(start+latency, done)
}

// QueueDelay reports how far ahead of now the channel for bank is booked;
// useful for tests asserting the bandwidth model engages.
func (c *Controller) QueueDelay(bank int) event.Cycle {
	ch := c.ChannelForBank(bank)
	if c.nextFree[ch] <= c.q.Now() {
		return 0
	}
	return c.nextFree[ch] - c.q.Now()
}

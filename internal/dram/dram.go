// Package dram provides the off-chip memory substrate: a word-addressed
// backing store holding the architectural value of every memory location,
// and a GDDR5-like timing model — per-channel bandwidth queueing over
// banked devices with open-row buffers (a row hit costs column access
// only; a row miss pays precharge + activate).
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
	"slices"

	"cohesion/internal/addr"
	"cohesion/internal/event"
	"cohesion/internal/stats"
)

// Table segment geometry: 8,192 blocks of 64 lines, 64 blocks a chunk.
const (
	tblLines    = addr.TableBytes / addr.LineBytes
	tblLine0    = addr.Line(addr.TableBase >> addr.LineShift)
	blockLines  = 64
	blockWords  = blockLines * addr.WordsPerLine
	blockBytes  = blockWords * addr.WordBytes
	tblBlocks   = tblLines / blockLines
	chunkBlocks = 64
)

// Store holds the architectural contents of memory, one 32-bit word at a
// time, organized by cache line. Lines never written read as zero.
//
// The fine-grain region table segment [addr.TableBase, +TableBytes) is
// held as 64-line blocks instead of in the line map: Cohesion paints the
// table over the whole incoherent heap at load time, which would swamp
// the map (and the address-ordered fingerprint walk) with tens of
// thousands of lines that, in all but a few blocks, repeat one word. A
// block holds that word as its pattern and copies it out into real words
// only when a write stores a different value. The block headers are
// allocated in chunks of 64, on the first write into a chunk, so SWcc/HWcc
// machines never pay for them and a preset pays only for the chunks it
// paints. The two representations are observationally identical: Lines,
// ReadLine, LinesTouched, and Fingerprint present the merged image in
// address order, with a table line participating once any of its words
// has been written (even with zero), exactly as a map entry would.
type Store struct {
	lines map[addr.Line]*[addr.WordsPerLine]uint32
	tbl   [tblBlocks / chunkBlocks]*[chunkBlocks]tblBlock // nil until written into
}

// tblBlock is one 64-line block of the table segment. While words is nil
// every word of the block reads as pattern. written has one bit per line:
// the line has been stored to and so belongs to the image. pattern is
// nonzero only on a block FillTable painted, which is fully written, so
// an unwritten line always reads as zero.
type tblBlock struct {
	written uint64
	pattern uint32
	words   *[blockWords]uint32
}

// word returns word w of the block.
func (b *tblBlock) word(w int) uint32 {
	if b.words == nil {
		return b.pattern
	}
	return b.words[w]
}

// write stores v into word w, copying the pattern out on the first write
// of a different value.
func (b *tblBlock) write(w int, v uint32) {
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
func (b *tblBlock) line(j int) (out [addr.WordsPerLine]uint32) {
	for i := range out {
		out[i] = b.word(j*addr.WordsPerLine + i)
	}
	return out
}

// NewStore returns an empty memory image.
func NewStore() *Store {
	return &Store{lines: make(map[addr.Line]*[addr.WordsPerLine]uint32)}
}

// inTable reports whether a falls in the table segment.
func inTable(a addr.Addr) bool {
	return a >= addr.TableBase && a-addr.TableBase < addr.TableBytes
}

// unwritten stands for every block of an unallocated chunk: no line
// written, every word zero. Only reads see it.
var unwritten tblBlock

// block returns table block bi for reading.
func (s *Store) block(bi int) *tblBlock {
	if c := s.tbl[bi/chunkBlocks]; c != nil {
		return &c[bi%chunkBlocks]
	}
	return &unwritten
}

// writeBlock returns table block bi, allocating its chunk on first use.
func (s *Store) writeBlock(bi int) *tblBlock {
	c := s.tbl[bi/chunkBlocks]
	if c == nil {
		c = new([chunkBlocks]tblBlock)
		s.tbl[bi/chunkBlocks] = c
	}
	return &c[bi%chunkBlocks]
}

// blocks yields the blocks of every allocated chunk with their indices, in
// address order.
func (s *Store) blocks() iter.Seq2[int, *tblBlock] {
	return func(yield func(int, *tblBlock) bool) {
		for ci, c := range s.tbl {
			if c == nil {
				continue
			}
			for j := range c {
				if !yield(ci*chunkBlocks+j, &c[j]) {
					return
				}
			}
		}
	}
}

// ReadWord returns the word containing address a.
func (s *Store) ReadWord(a addr.Addr) uint32 {
	if inTable(a) {
		w := int(a-addr.TableBase) >> addr.WordShift
		return s.block(w / blockWords).word(w % blockWords)
	}
	l := s.lines[addr.LineOf(a)]
	if l == nil {
		return 0
	}
	return l[addr.WordIndex(a)]
}

// WriteWord stores v into the word containing address a.
func (s *Store) WriteWord(a addr.Addr, v uint32) {
	if inTable(a) {
		w := int(a-addr.TableBase) >> addr.WordShift
		s.writeBlock(w/blockWords).write(w%blockWords, v)
		return
	}
	line := addr.LineOf(a)
	l := s.lines[line]
	if l == nil {
		l = new([addr.WordsPerLine]uint32)
		s.lines[line] = l
	}
	l[addr.WordIndex(a)] = v
}

// FillTable stores v into every word of the table range r, which must
// cover whole 64-line blocks (2 KiB-aligned base and size). Each block
// becomes fully written and holds v as its pattern, dropping any words a
// differing write had copied out.
func (s *Store) FillTable(r addr.Range, v uint32) {
	off := r.Base - addr.TableBase
	if !inTable(r.Base) || off%blockBytes != 0 || r.Size%blockBytes != 0 || off+addr.Addr(r.Size) > addr.TableBytes {
		panic(fmt.Sprintf("dram: FillTable range %v is not whole table blocks", r))
	}
	for bi := int(off / blockBytes); bi < int((off+addr.Addr(r.Size))/blockBytes); bi++ {
		*s.writeBlock(bi) = tblBlock{written: ^uint64(0), pattern: v}
	}
}

// ReadLine copies the full contents of a line.
func (s *Store) ReadLine(line addr.Line) [addr.WordsPerLine]uint32 {
	if base := line.Base(); inTable(base) {
		li := int(line - tblLine0)
		return s.block(li / blockLines).line(li % blockLines)
	}
	if l := s.lines[line]; l != nil {
		return *l
	}
	return [addr.WordsPerLine]uint32{}
}

// MergeLine writes back the words of data selected by mask (bit i = word i),
// leaving other words untouched. This implements the paper's per-word
// dirty-bit merge that lets the L3 combine disjoint write sets from
// multiple SWcc writers.
func (s *Store) MergeLine(line addr.Line, mask uint8, data [addr.WordsPerLine]uint32) {
	if mask == 0 {
		return
	}
	if base := line.Base(); inTable(base) {
		li := int(line - tblLine0)
		b := s.writeBlock(li / blockLines)
		w0 := li % blockLines * addr.WordsPerLine
		for w := 0; w < addr.WordsPerLine; w++ {
			if mask&(1<<w) != 0 {
				b.write(w0+w, data[w])
			}
		}
		return
	}
	l := s.lines[line]
	if l == nil {
		l = new([addr.WordsPerLine]uint32)
		s.lines[line] = l
	}
	for w := 0; w < addr.WordsPerLine; w++ {
		if mask&(1<<w) != 0 {
			l[w] = data[w]
		}
	}
}

// tblLinesTouched counts written table lines.
func (s *Store) tblLinesTouched() int {
	n := 0
	for _, b := range s.blocks() {
		n += bits.OnesCount64(b.written)
	}
	return n
}

// LinesTouched reports how many distinct lines have ever been written.
func (s *Store) LinesTouched() int { return len(s.lines) + s.tblLinesTouched() }

// Lines returns every written line in address order (tests rebuild the
// fingerprint from it line by line).
func (s *Store) Lines() []addr.Line {
	lines := make([]addr.Line, 0, len(s.lines)+s.tblLinesTouched())
	for line := range s.lines {
		lines = append(lines, line)
	}
	slices.Sort(lines)
	// The table segment is the top of the address space: every written
	// table line sorts after every map line.
	for bi, b := range s.blocks() {
		for w := b.written; w != 0; w &= w - 1 {
			lines = append(lines, tblLine0+addr.Line(bi*blockLines+bits.TrailingZeros64(w)))
		}
	}
	return lines
}

// fnv64Prime and fnv64Offset are the FNV-1a constants for the fingerprint.
const (
	fnv64Prime  = 1099511628211
	fnv64Offset = 14695981039346656037
)

// fnv64Prime4 is fnv64Prime^4 mod 2^64: mixing a zero byte is
// h = (h^0)*p = h*p, so a run of four zero bytes is one multiply.
var fnv64Prime4 = func() uint64 {
	p := uint64(fnv64Prime)
	return p * p * p * p
}()

// mixLine folds one line (its number, then its eight words) into the
// running FNV-1a state. The digest is defined byte by byte,
// little-endian, with both the line number and each word widened to
// eight bytes; the zero upper halves collapse into multiplies by
// fnv64Prime4, which is bit-identical to the byte loop and roughly
// halves the serial chain (the Cohesion table preset makes end-of-run
// fingerprints mix ~32K table lines, so this is hot).
func mixLine(h uint64, line addr.Line, words *[addr.WordsPerLine]uint32) uint64 {
	v := uint64(line)
	for i := 0; i < 4; i++ {
		h ^= v & 0xff
		h *= fnv64Prime
		v >>= 8
	}
	if v == 0 { // always, in a 32-bit address space
		h *= fnv64Prime4
	} else {
		for i := 0; i < 4; i++ {
			h ^= v & 0xff
			h *= fnv64Prime
			v >>= 8
		}
	}
	for _, w := range words {
		v = uint64(w)
		for i := 0; i < 4; i++ {
			h ^= v & 0xff
			h *= fnv64Prime
			v >>= 8
		}
		h *= fnv64Prime4 // bytes 4..7 of the widened word are zero
	}
	return h
}

// Fingerprint digests the full memory image (FNV-1a over lines in address
// order), independent of map iteration order: equal images yield equal
// fingerprints. Determinism tests use it to compare whole runs cheaply.
func (s *Store) Fingerprint() uint64 {
	lines := make([]addr.Line, 0, len(s.lines))
	for line := range s.lines {
		lines = append(lines, line)
	}
	slices.Sort(lines)
	h := uint64(fnv64Offset)
	for _, line := range lines {
		h = mixLine(h, line, s.lines[line])
	}
	// Table lines sort after everything in the map (top of the address
	// space), so they are mixed last, in ascending order. A fully written
	// block still holding its pattern (the common case: the Cohesion
	// preset paints the table in whole blocks) is folded in with one
	// cached affine transform instead of ~4600 dependent multiplies;
	// ragged or copied-out blocks take the per-line path with the concrete
	// running state, so the result is bit-identical either way.
	for bi, b := range s.blocks() {
		if b.written == ^uint64(0) && b.words == nil {
			x := blockXformFor(bi, b.pattern)
			h = h*x.mult + x.add[h&0xff]
			continue
		}
		for w := b.written; w != 0; w &= w - 1 {
			j := bits.TrailingZeros64(w)
			line := b.line(j)
			h = mixLine(h, tblLine0+addr.Line(bi*blockLines+j), &line)
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

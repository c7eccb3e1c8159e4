package sim

import "math/bits"

// ledgerChunkWords is the chunk granularity of the task ledger: 64 words
// = 4096 tasks per chunk. Chunks carry their own undone counts so sweeps
// over the ledger (adversary candidate scans, undone iteration) skip
// fully-done regions 4096 tasks at a time — at the t = 262144 shapes the
// large-grid sweeps run, that turns O(t) scans into O(done chunks +
// undone tasks).
const ledgerChunkWords = 64

// TaskLedger is the chunked global done-task ledger shared by both
// simulation engines and exposed to adversaries through View.Tasks. It
// packs task-done flags 64 per word (8× denser than the []bool it
// replaced, which matters once t reaches the hundreds of thousands),
// keeps the global undone count, and maintains per-chunk undone counts
// for skip-scanning. It is not safe for concurrent use in general;
// concurrent read-only access (Done, Undone) is safe while no writer
// runs — the parallel tick engine's A2 shards rely on this: they classify
// each performed task as primary by its pre-tick Done bit alone, while
// every MarkDone waits for the serial phase B.
type TaskLedger struct {
	n           int
	words       []uint64
	chunkUndone []int32
	undone      int
}

// NewTaskLedger returns a ledger for t tasks, none done.
func NewTaskLedger(t int) *TaskLedger {
	l := &TaskLedger{}
	l.Reset(t)
	return l
}

// Reset re-shapes the ledger for t tasks, none done, reusing its arrays
// when the shape allows.
func (l *TaskLedger) Reset(t int) {
	nw := (t + 63) / 64
	nc := (nw + ledgerChunkWords - 1) / ledgerChunkWords
	if cap(l.words) >= nw {
		l.words = l.words[:nw]
		clear(l.words)
	} else {
		l.words = make([]uint64, nw)
	}
	if cap(l.chunkUndone) >= nc {
		l.chunkUndone = l.chunkUndone[:nc]
	} else {
		l.chunkUndone = make([]int32, nc)
	}
	l.n = t
	l.undone = t
	for c := range l.chunkUndone {
		lo := c * ledgerChunkWords * 64
		hi := lo + ledgerChunkWords*64
		if hi > t {
			hi = t
		}
		l.chunkUndone[c] = int32(hi - lo)
	}
}

// Len returns the number of tasks.
func (l *TaskLedger) Len() int { return l.n }

// Undone returns the number of tasks not yet performed by anyone.
func (l *TaskLedger) Undone() int { return l.undone }

// Done reports whether task z has been performed by anyone.
func (l *TaskLedger) Done(z int) bool {
	return l.words[z>>6]&(1<<(uint(z)&63)) != 0
}

// MarkDone records task z as performed, reporting whether this was its
// first performance.
func (l *TaskLedger) MarkDone(z int) bool {
	w := z >> 6
	bit := uint64(1) << (uint(z) & 63)
	if l.words[w]&bit != 0 {
		return false
	}
	l.words[w] |= bit
	l.undone--
	l.chunkUndone[w/ledgerChunkWords]--
	return true
}

// NextUndone returns the first undone task at or after from, or -1 if
// none. Fully-done chunks are skipped whole, so iterating all undone
// tasks costs O(chunks + undone), not O(t).
func (l *TaskLedger) NextUndone(from int) int {
	if from < 0 {
		from = 0
	}
	for from < l.n {
		c := from >> 6 / ledgerChunkWords
		if l.chunkUndone[c] == 0 {
			from = (c + 1) * ledgerChunkWords * 64
			continue
		}
		w := l.words[from>>6]
		if rest := ^w >> (uint(from) & 63); rest != 0 {
			z := from + bits.TrailingZeros64(rest)
			if z >= l.n {
				return -1
			}
			return z
		}
		from = (from | 63) + 1
	}
	return -1
}

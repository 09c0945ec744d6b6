// Package buffer implements the paper's §4 buffering techniques:
//
//   - SeqReader: multiple buffering with read-ahead for sequential
//     streams ("since the order of accesses is predictable, reading ahead
//     ... can be used to overlap I/O operations with computation").
//     Prefetching is performed by dedicated I/O processes, the paper's
//     "dedicated I/O processors".
//   - SeqWriter: deferred (behind) writing for sequential output streams.
//   - Cache: a write-back buffer pool "helpful when there is some
//     locality of reference, as in the PDA organization": segmented-LRU
//     replacement, so blocks touched once do not flush the ones hit again,
//     and write-behind — dirty victims are written in vectored batches by
//     dedicated I/O processes instead of inside the miss that evicted them.
//
// Each handle takes its transfer hook when it is built, one type for
// both directions, and every hook moves a buffer space (blockio.Space)
// whose pieces are the handle's own frames, so nothing is staged or
// copied. A stream's unit is an extent of up to E blocks. Its I/O
// processes move them in batches: a prefetch process claims the extent
// of every free buffer, a write-behind process takes every consecutive
// extent queued behind the one it got, and each batch is one RunIO call
// — list I/O over the batch's frames — so a coalescing backend sends
// physically adjacent extents as one device request per drive.
// Block-at-a-time is E = 1, and there a batch is one block: the paper's
// one request per block. A synchronous stream moves one extent per call.
// The Cache moves lists of blocks through one SpanIO, which takes the
// direction, a frame a piece; a miss or a write-back of one block is the
// one-index list.
//
// All three are engine-aware: under a sim.Engine they overlap transfers
// with the caller's computation in virtual time; without one they degrade
// to synchronous operation (single-goroutine use only).
//
// SeqReader and SeqWriter recycle their frames: a stream takes them from
// a free list kept per frame size when it opens and gives back at Close
// the ones no transfer can still touch, so a workload that opens stream
// after stream allocates its frames once. A recycled frame holds what its
// last stream left in it; every user overwrites a frame before reading
// it (a fetch fills a reader's, and core's writer clears each one it
// acquires).
package buffer

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/blockio"
	"repro/internal/sim"
)

// RunIO moves the run of n stream blocks starting at block first between
// the backing store and the buffer space sp, block first+i at space
// offset i × block size: a SeqReader's hook reads into sp, a SeqWriter's
// writes from it. The pieces are the frames of the extents the run
// covers, one each, and the run is ideally coalesced into one device
// request per drive (core issues it as a blockio.Vec — one segment where
// the view is contiguous — through Set.Transfer).
type RunIO func(ctx sim.Context, first int64, n int, sp blockio.Space) error

// frames is the free list of stream frames, by size. It keeps at most
// maxFrameSizes sizes: a new one beyond that starts it over (the rest
// goes to the collector), so streams whose frames keep changing size
// never pile up. A size's list holds at most what the streams open at
// once took of it.
var frames struct {
	sync.Mutex
	free map[int][][]byte
}

const maxFrameSizes = 8

// getFrames returns n frames of size bytes, recycled where it can.
func getFrames(size, n int) [][]byte {
	out := make([][]byte, 0, n)
	frames.Lock()
	if free := frames.free[size]; len(free) > 0 {
		k := len(free) - min(n, len(free))
		out = append(out, free[k:]...)
		frames.free[size] = free[:k]
	}
	frames.Unlock()
	for len(out) < n {
		out = append(out, make([]byte, size))
	}
	return out
}

// putFrames returns frames to the free list, each under its full size
// (a caller may have handed back a shortened slice of one).
func putFrames(bufs [][]byte) {
	frames.Lock()
	defer frames.Unlock()
	for _, b := range bufs {
		b = b[:cap(b)]
		free, ok := frames.free[len(b)]
		if !ok && len(frames.free) >= maxFrameSizes {
			clear(frames.free)
		}
		if frames.free == nil {
			frames.free = make(map[int][][]byte)
		}
		frames.free[len(b)] = append(free, b)
	}
}

// ioBatch is the scratch of one stream transfer: the extents it moves —
// a reader's futures or a writer's queued extents — and the buffer space
// their frames make. An I/O process holds its own for as long as it
// runs, so two processes of one stream never share one.
type ioBatch struct {
	futs  []*fetched
	items []flushItem
	sp    blockio.Space
}

// batches recycles ioBatches across processes and streams.
var batches = sync.Pool{New: func() any { return new(ioBatch) }}

// reset drops the batch's references to frames, readying it for reuse.
func (b *ioBatch) reset() {
	clear(b.futs)
	clear(b.items)
	clear(b.sp)
	b.futs, b.items, b.sp = b.futs[:0], b.items[:0], b.sp[:0]
}

// piece appends to the batch's space the valid prefix of extent e's frame
// in a stream of blocks blocks: the extent's blocks at their offset from
// the batch's first extent.
func (b *ioBatch) piece(e, first, extent, blocks int64, blockSize int, buf []byte) {
	bs := int64(blockSize)
	n := min(extent, blocks-e*extent)
	b.sp = append(b.sp, blockio.Piece{Off: (e - first) * extent * bs, Buf: buf[:n*bs]})
}

// fetched is one prefetched extent's future: the prefetcher enqueues it
// on the filled queue at claim time (so consumers receive extents in
// stream order) and completes it when the fetch lands. The consumer that
// takes it hands it back to its reader for the next claim.
type fetched struct {
	idx  int64
	buf  []byte
	err  error
	done bool
	wq   sim.WaitQueue
}

// SeqReader streams a stream's extents in order through a fixed pool of
// buffers, prefetching ahead of the consumer. Multiple consumers may call
// Next concurrently under an engine (each receives a distinct extent, in
// claim order) — this is the substrate for shared self-scheduled reads.
//
// Under an engine, fetched-extent futures flow consumer-ward through
// fillq in claim order. No prefetch process ever parks waiting for a
// buffer: one that finds the pool empty retires, and the Release that
// refills the pool spawns its successor — at the very point a parked
// process would have been woken, so modeled time is the same. A reader
// abandoned at any point (drained, dropped mid-stream, never closed)
// therefore leaves nothing behind for the engine to call a deadlock.
type SeqReader struct {
	fetch     RunIO
	blockSize int
	extent    int64 // blocks per extent
	blocks    int64 // stream length in blocks
	extents   int64 // extents in the stream
	readers   int   // prefetch processes; 0 = synchronous on Next

	started   bool
	closed    bool
	free      [][]byte   // buffer pool
	futures   []*fetched // consumed futures, for the next claims
	active    int        // live prefetch processes
	fillq     *sim.Queue // *fetched, in claim order
	nextFetch int64
	nextServe int64
}

// NewSeqReader builds a reader of a stream of total blocks of blockSize
// bytes whose unit is an extent of up to `extent` blocks, with nbufs
// buffers and `readers` prefetch processes. Buffers are extent ×
// blockSize bytes. A prefetch process claims the extent of every free
// buffer — with extent 1, one block at a time — and fetches the claimed
// extents, blocks [e·extent, min((e+1)·extent, total)) each, in a single
// RunIO call whose space pieces are their buffers, so a coalescing
// fetch pays the device's per-request overhead once per batch instead of
// once per block. Next yields whole extents (the index is the extent
// number; the final extent may cover fewer blocks, and only its valid
// prefix of the buffer is filled). The pool is sized to the stream, not
// just to the options: a stream shorter than one extent gets buffers of
// its own length, and never more buffers than it has extents. With
// readers == 0 (or when used without an engine) each Next performs its
// one extent's fetch synchronously — the paper's unbuffered baseline.
func NewSeqReader(fetch RunIO, blockSize int, total int64, extent, nbufs, readers int) (*SeqReader, error) {
	extent = max(extent, 1)
	if blockSize <= 0 {
		return nil, fmt.Errorf("buffer: block size %d", blockSize)
	}
	if total > 0 && int64(extent) > total {
		extent = int(total)
	}
	extents := (total + int64(extent) - 1) / int64(extent)
	if int64(nbufs) > extents {
		nbufs = int(max(extents, 1))
	}
	if nbufs < 1 {
		return nil, fmt.Errorf("buffer: need at least 1 buffer, got %d", nbufs)
	}
	if readers < 0 {
		return nil, fmt.Errorf("buffer: negative reader count")
	}
	return &SeqReader{
		fetch:     fetch,
		blockSize: blockSize,
		extent:    int64(extent),
		blocks:    total,
		extents:   extents,
		readers:   min(readers, nbufs),
		free:      getFrames(blockSize*extent, nbufs),
	}, nil
}

// fetchBatch fetches the extents [first, last) of b's space with one
// RunIO call.
func (r *SeqReader) fetchBatch(ctx sim.Context, b *ioBatch, first, last int64) error {
	lo := first * r.extent
	return r.fetch(ctx, lo, int(min(last*r.extent, r.blocks)-lo), b.sp)
}

// takeFree pops a pool buffer; ok=false when the pool is empty.
func (r *SeqReader) takeFree() (buf []byte, ok bool) {
	n := len(r.free)
	if n == 0 {
		return nil, false
	}
	buf = r.free[n-1]
	r.free = r.free[:n-1]
	return buf, true
}

// claim makes the future of extent e, fetching into buf.
func (r *SeqReader) claim(e int64, buf []byte) *fetched {
	var f *fetched
	if n := len(r.futures); n > 0 {
		f = r.futures[n-1]
		r.futures = r.futures[:n-1]
	} else {
		f = new(fetched)
	}
	f.idx, f.buf, f.err, f.done = e, buf, nil, false
	return f
}

// spawnPrefetch launches one dedicated I/O process (engine mode only).
func (r *SeqReader) spawnPrefetch(e *sim.Engine) {
	r.active++
	e.Go("prefetch", r.prefetch)
}

// prefetch is the body of a dedicated I/O process: while the stream has
// extents left and the pool a buffer, claim the next extent — with
// extents of more than one block, the next extent of every free buffer —
// publish their futures on fillq (claim and publish never park, so fillq
// stays in stream order — fillq is unbounded for exactly that reason; the
// buffer pool is what bounds read-ahead), then fetch the batch with one
// RunIO call and complete its futures; a failed fetch fails every one
// and returns its buffers to the pool. The only place it waits is inside
// the fetch itself.
func (r *SeqReader) prefetch(io *sim.Proc) {
	b := batches.Get().(*ioBatch)
	for !r.closed && r.nextFetch < r.extents && len(r.free) > 0 {
		first, last := r.nextFetch, r.nextFetch+1
		if r.extent > 1 {
			last = min(first+int64(len(r.free)), r.extents)
		}
		for e := first; e < last; e++ {
			buf, _ := r.takeFree()
			f := r.claim(e, buf)
			r.nextFetch++
			r.fillq.Put(io, f)
			b.futs = append(b.futs, f)
			b.piece(e, first, r.extent, r.blocks, r.blockSize, buf)
		}
		err := r.fetchBatch(io, b, first, last)
		for _, f := range b.futs {
			if err != nil {
				f.err = err
				r.free = append(r.free, f.buf)
				f.buf = nil
			}
			f.done = true
			f.wq.WakeAll(io.Engine())
		}
		b.reset()
	}
	batches.Put(b)
	r.active--
}

// Next claims and returns the next extent in stream order along with its
// index. The caller must Release the buffer when done. At end of stream
// it returns io.EOF.
func (r *SeqReader) Next(ctx sim.Context) ([]byte, int64, error) {
	if r.closed {
		return nil, 0, fmt.Errorf("buffer: reader closed")
	}
	if r.nextServe >= r.extents {
		return nil, 0, io.EOF
	}
	p, engine := ctx.(*sim.Proc)
	if !engine || r.readers == 0 {
		// Synchronous path: fetch directly into a free buffer.
		idx := r.nextServe
		r.nextServe++
		buf, ok := r.takeFree()
		if !ok {
			return nil, idx, fmt.Errorf("buffer: no free buffer (missing Release?)")
		}
		b := batches.Get().(*ioBatch)
		b.piece(idx, idx, r.extent, r.blocks, r.blockSize, buf)
		err := r.fetchBatch(ctx, b, idx, idx+1)
		b.reset()
		batches.Put(b)
		if err != nil {
			r.free = append(r.free, buf)
			return nil, idx, err
		}
		return buf, idx, nil
	}
	if !r.started {
		r.started = true
		r.fillq = sim.NewQueue(1 << 30)
		for i := 0; i < r.readers; i++ {
			r.spawnPrefetch(p.Engine())
		}
	}
	r.nextServe++
	// Futures arrive in claim order, so the queue's head is this
	// consumer's extent; park on the future until its fetch lands.
	v, ok := r.fillq.Get(p)
	if !ok {
		return nil, r.nextServe - 1, fmt.Errorf("buffer: reader closed")
	}
	f := v.(*fetched)
	for !f.done {
		f.wq.Wait(p)
	}
	buf, idx, err := f.buf, f.idx, f.err
	f.buf, f.err = nil, nil
	r.futures = append(r.futures, f)
	if err != nil {
		return nil, idx, err
	}
	return buf, idx, nil
}

// Claimed reports how many extents, from the start of the stream, have
// been fetched or are being fetched.
func (r *SeqReader) Claimed() int64 { return max(r.nextFetch, r.nextServe) }

// Release returns a buffer obtained from Next to the pool, restarting
// read-ahead if it had stopped for want of one.
func (r *SeqReader) Release(ctx sim.Context, buf []byte) {
	if r.closed {
		return
	}
	r.free = append(r.free, buf)
	if p, ok := ctx.(*sim.Proc); ok && r.started && r.active < r.readers && r.nextFetch < r.extents {
		r.spawnPrefetch(p.Engine())
	}
}

// Close shuts the reader down; outstanding prefetches complete and are
// discarded. Only the frames in the pool are recycled: one being fetched
// into, waiting to be consumed or held by a consumer stays with the
// reader. Close is optional: an unclosed reader holds only memory.
func (r *SeqReader) Close(ctx sim.Context) {
	if r.closed {
		return
	}
	r.closed = true
	putFrames(r.free)
	r.free = nil
	if p, ok := ctx.(*sim.Proc); ok && r.started {
		r.fillq.Close(p)
	}
}

// flushItem is an extent submitted for deferred writing.
type flushItem struct {
	idx int64
	buf []byte
}

// SeqWriter implements deferred writing: the producer fills buffers and
// Submit returns immediately while dedicated writer processes perform the
// transfers. Close drains everything and reports the first errors.
//
// Under an engine, filled extents queue writer-ward in submission order
// and drained buffers come back to the pool; a producer that finds the
// pool empty parks until a write lands, and an idle writer parks until
// an extent is submitted.
type SeqWriter struct {
	flush     RunIO
	blockSize int
	extent    int64 // blocks per extent
	blocks    int64 // stream length in blocks
	writers   int

	started   bool
	closed    bool
	free      [][]byte      // buffer pool
	frameWait sim.WaitQueue // producers waiting for a buffer
	queue     []flushItem   // submitted extents no writer has taken, in submission order
	work      sim.WaitQueue // idle writers
	errs      []error
	g         sim.Group
}

// NewSeqWriter builds a deferred writer of a stream of total blocks of
// blockSize bytes whose unit is an extent of up to `extent` blocks, with
// nbufs buffers and `writers` flush processes (0 = synchronous Submit).
// The producer assembles extent × blockSize buffers (Submit index =
// extent number). A writer takes the next submitted extent — with extents
// of more than one block, together with every consecutive extent queued
// behind it — and flushes them in a single RunIO call whose space
// pieces are their buffers: one coalesced device request per drive per
// batch. The final extent is clamped to the stream length, so only its
// valid prefix is written.
func NewSeqWriter(flush RunIO, blockSize int, total int64, extent, nbufs, writers int) (*SeqWriter, error) {
	extent = max(extent, 1)
	if blockSize <= 0 {
		return nil, fmt.Errorf("buffer: block size %d", blockSize)
	}
	if nbufs < 1 {
		return nil, fmt.Errorf("buffer: need at least 1 buffer, got %d", nbufs)
	}
	if writers < 0 {
		return nil, fmt.Errorf("buffer: negative writer count")
	}
	return &SeqWriter{flush: flush, blockSize: blockSize, extent: int64(extent), blocks: total,
		writers: min(writers, nbufs), free: getFrames(blockSize*extent, nbufs)}, nil
}

// inStream reports whether extent e holds blocks of the stream.
func (w *SeqWriter) inStream(e int64) bool { return e*w.extent < w.blocks }

// store flushes the extents of b.items, consecutive and in the stream,
// with one RunIO call.
func (w *SeqWriter) store(ctx sim.Context, b *ioBatch) error {
	first, last := b.items[0].idx, b.items[len(b.items)-1].idx+1
	if !w.inStream(first) {
		return fmt.Errorf("buffer: extent %d beyond stream of %d blocks", first, w.blocks)
	}
	for _, it := range b.items {
		b.piece(it.idx, first, w.extent, w.blocks, w.blockSize, it.buf)
	}
	lo := first * w.extent
	return w.flush(ctx, lo, int(min(last*w.extent, w.blocks)-lo), b.sp)
}

// startWriters launches the flush processes (engine mode only).
func (w *SeqWriter) startWriters(p *sim.Proc) {
	w.started = true
	for i := 0; i < w.writers; i++ {
		w.g.Spawn(p.Engine(), "write-behind", w.writeBehind)
	}
}

// writeBehind is the body of a flush process: it takes the extent at the
// head of the queue — with extents of more than one block, together with
// every consecutive extent of the stream queued behind it — flushes them
// with one RunIO call and returns their buffers to the pool, until
// Close has closed the writer and the queue is empty.
func (w *SeqWriter) writeBehind(io *sim.Proc) {
	b := batches.Get().(*ioBatch)
	defer batches.Put(b)
	for {
		for len(w.queue) == 0 && !w.closed {
			w.work.Wait(io)
		}
		if len(w.queue) == 0 {
			return
		}
		k := 1
		for w.extent > 1 && k < len(w.queue) && w.queue[k].idx == w.queue[k-1].idx+1 && w.inStream(w.queue[k].idx) {
			k++
		}
		b.items = append(b.items, w.queue[:k]...)
		n := copy(w.queue, w.queue[k:])
		clear(w.queue[n:])
		w.queue = w.queue[:n]
		if err := w.store(io, b); err != nil {
			w.errs = append(w.errs, fmt.Errorf("buffer: flush extents %d–%d: %w", b.items[0].idx, b.items[k-1].idx, err))
		}
		for _, it := range b.items {
			w.free = append(w.free, it.buf)
			w.frameWait.WakeOne(io.Engine())
		}
		b.reset()
	}
}

// Acquire obtains an empty buffer to fill (waiting for one under an
// engine; erroring if exhausted without one).
func (w *SeqWriter) Acquire(ctx sim.Context) ([]byte, error) {
	if w.closed {
		return nil, fmt.Errorf("buffer: writer closed")
	}
	if p, engine := ctx.(*sim.Proc); engine && w.started {
		for len(w.free) == 0 {
			w.frameWait.Wait(p)
		}
	}
	if len(w.free) == 0 {
		return nil, fmt.Errorf("buffer: no free buffer (synchronous writer leak?)")
	}
	buf := w.free[len(w.free)-1]
	w.free = w.free[:len(w.free)-1]
	return buf, nil
}

// Submit hands a filled buffer over for (deferred) writing as extent
// idx. Under an engine with writer processes it returns before the
// transfer; otherwise it flushes synchronously.
func (w *SeqWriter) Submit(ctx sim.Context, idx int64, buf []byte) error {
	if w.closed {
		return fmt.Errorf("buffer: writer closed")
	}
	p, engine := ctx.(*sim.Proc)
	if !engine || w.writers == 0 {
		b := batches.Get().(*ioBatch)
		b.items = append(b.items, flushItem{idx: idx, buf: buf})
		err := w.store(ctx, b)
		b.reset()
		batches.Put(b)
		w.free = append(w.free, buf)
		return err
	}
	if !w.started {
		w.startWriters(p)
	}
	w.queue = append(w.queue, flushItem{idx: idx, buf: buf})
	w.work.WakeOne(p.Engine())
	return nil
}

// Close drains pending writes, stops the writer processes and returns
// any accumulated flush errors. The drained frames are recycled; one the
// producer acquired and never submitted stays with the writer.
func (w *SeqWriter) Close(ctx sim.Context) error {
	if w.closed {
		return nil
	}
	w.closed = true
	if p, ok := ctx.(*sim.Proc); ok && w.started {
		w.work.WakeAll(p.Engine())
		w.g.Wait(p)
	}
	putFrames(w.free)
	w.free = nil
	return errors.Join(w.errs...)
}

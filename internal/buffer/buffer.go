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
// SeqReader and SeqWriter also come in extent form (NewSeqReaderExtent,
// NewSeqWriterExtent): the streaming unit becomes a run of up to E
// blocks fetched or flushed by one FetchRun/FlushRun call, so a
// coalescing backend turns every extent into a single device request.
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

	"repro/internal/sim"
)

// Fetch reads stream block idx into buf (len(buf) = block size).
type Fetch func(ctx sim.Context, idx int64, buf []byte) error

// FlushFn writes stream block idx from buf.
type FlushFn func(ctx sim.Context, idx int64, buf []byte) error

// FetchRun reads the run of n stream blocks starting at block first into
// buf (len(buf) = n × block size), ideally coalesced into one device
// request per drive (core issues it as a blockio.Vec — one segment where
// the view is contiguous — through Set.ReadVecStrategy).
type FetchRun func(ctx sim.Context, first int64, n int, buf []byte) error

// FlushRun writes the run of n stream blocks starting at block first
// from buf, the write counterpart of FetchRun.
type FlushRun func(ctx sim.Context, first int64, n int, buf []byte) error

// FetchSpan reads the len(idxs) blocks listed in idxs into buf, the i-th
// landing at buf[i×blockSize:]. The indices are ascending and distinct
// but need not be contiguous; a vectored backend (blockio.Set.ReadVec)
// coalesces physically adjacent blocks into single device requests.
type FetchSpan func(ctx sim.Context, idxs []int64, buf []byte) error

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

// fetched is one prefetched block's future: the prefetcher enqueues it
// on the filled queue at claim time (so consumers receive blocks in
// stream order) and completes it when the fetch lands.
type fetched struct {
	idx  int64
	buf  []byte
	err  error
	done bool
	wq   sim.WaitQueue
}

// SeqReader streams blocks 0..total-1 in order through a fixed pool of
// buffers, prefetching ahead of the consumer. Multiple consumers may call
// Next concurrently under an engine (each receives a distinct block, in
// claim order) — this is the substrate for shared self-scheduled reads.
//
// Under an engine, fetched-block futures flow consumer-ward through
// fillq in claim order. No prefetch process ever parks waiting for a
// buffer: one that finds the pool empty retires, and the Release that
// refills the pool spawns its successor — at the very point a parked
// process would have been woken, so modeled time is the same. A reader
// abandoned at any point (drained, dropped mid-stream, never closed)
// therefore leaves nothing behind for the engine to call a deadlock.
type SeqReader struct {
	fetch     Fetch
	blockSize int
	total     int64
	readers   int // prefetch processes; 0 = synchronous on Next

	started   bool
	closed    bool
	free      [][]byte   // buffer pool
	active    int        // live prefetch processes
	fillq     *sim.Queue // *fetched, in claim order
	nextFetch int64
	nextServe int64
}

// NewSeqReader builds a reader of total blocks of blockSize bytes using
// nbufs buffers and `readers` prefetch processes. With readers == 0 (or
// when used without an engine) each Next performs its fetch
// synchronously — the paper's unbuffered baseline.
func NewSeqReader(fetch Fetch, blockSize int, total int64, nbufs, readers int) (*SeqReader, error) {
	if blockSize <= 0 {
		return nil, fmt.Errorf("buffer: block size %d", blockSize)
	}
	if nbufs < 1 {
		return nil, fmt.Errorf("buffer: need at least 1 buffer, got %d", nbufs)
	}
	if readers < 0 {
		return nil, fmt.Errorf("buffer: negative reader count")
	}
	if readers > nbufs {
		readers = nbufs
	}
	return &SeqReader{
		fetch:     fetch,
		blockSize: blockSize,
		total:     total,
		readers:   readers,
		free:      getFrames(blockSize, nbufs),
	}, nil
}

// NewSeqReaderExtent builds a reader whose streaming unit is an extent
// of up to `extent` blocks: buffers are extent × blockSize bytes, and
// each prefetch covers one whole extent — blocks [e·extent,
// min((e+1)·extent, total)) — in a single FetchRun call, so a coalescing
// fetch pays the device's per-request overhead once per extent instead
// of once per block. Next yields whole extents (the index is the extent
// number; the final extent may cover fewer blocks, and only its valid
// prefix of the buffer is filled). The pool is sized to the stream, not
// just to the options: a stream shorter than one extent gets buffers of
// its own length, and never more buffers than it has extents.
func NewSeqReaderExtent(fetch FetchRun, blockSize int, total int64, extent, nbufs, readers int) (*SeqReader, error) {
	if extent < 1 {
		extent = 1
	}
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
	wrapped := func(ctx sim.Context, e int64, buf []byte) error {
		first := e * int64(extent)
		n := int64(extent)
		if first+n > total {
			n = total - first
		}
		return fetch(ctx, first, int(n), buf[:n*int64(blockSize)])
	}
	return NewSeqReader(wrapped, blockSize*extent, extents, nbufs, readers)
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

// spawnPrefetch launches one dedicated I/O process (engine mode only).
func (r *SeqReader) spawnPrefetch(e *sim.Engine) {
	r.active++
	e.Go("prefetch", r.prefetch)
}

// prefetch is the body of a dedicated I/O process: while the stream has
// blocks left and the pool a buffer, claim the next block, publish its
// future on fillq (claim and publish never park, so fillq stays in
// stream order — fillq is unbounded for exactly that reason; the buffer
// pool is what bounds read-ahead), then fetch and complete the future.
// The only place it waits is inside the fetch itself.
func (r *SeqReader) prefetch(io *sim.Proc) {
	for !r.closed && r.nextFetch < r.total {
		buf, ok := r.takeFree()
		if !ok {
			break // Release respawns
		}
		f := &fetched{idx: r.nextFetch, buf: buf}
		r.nextFetch++
		r.fillq.Put(io, f)
		if err := r.fetch(io, f.idx, buf); err != nil {
			f.err, f.buf = err, nil
			r.free = append(r.free, buf)
		}
		f.done = true
		f.wq.WakeAll(io.Engine())
	}
	r.active--
}

// Next claims and returns the next block in stream order along with its
// index. The caller must Release the buffer when done. At end of stream
// it returns io.EOF.
func (r *SeqReader) Next(ctx sim.Context) ([]byte, int64, error) {
	if r.closed {
		return nil, 0, fmt.Errorf("buffer: reader closed")
	}
	if r.nextServe >= r.total {
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
		if err := r.fetch(ctx, idx, buf); err != nil {
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
	// consumer's block; park on the future until its fetch lands.
	v, ok := r.fillq.Get(p)
	if !ok {
		return nil, r.nextServe - 1, fmt.Errorf("buffer: reader closed")
	}
	f := v.(*fetched)
	for !f.done {
		f.wq.Wait(p)
	}
	if f.err != nil {
		return nil, f.idx, f.err
	}
	return f.buf, f.idx, nil
}

// Claimed reports how many blocks, from the start of the stream, have
// been fetched or are being fetched.
func (r *SeqReader) Claimed() int64 { return max(r.nextFetch, r.nextServe) }

// Release returns a buffer obtained from Next to the pool, restarting
// read-ahead if it had stopped for want of one.
func (r *SeqReader) Release(ctx sim.Context, buf []byte) {
	if r.closed {
		return
	}
	r.free = append(r.free, buf)
	if p, ok := ctx.(*sim.Proc); ok && r.started && r.active < r.readers && r.nextFetch < r.total {
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

// flushItem is a block queued for deferred writing.
type flushItem struct {
	idx int64
	buf []byte
}

// SeqWriter implements deferred writing: the producer fills buffers and
// Submit returns immediately while dedicated writer processes perform the
// transfers. Close drains everything and reports the first errors.
//
// Under an engine the writer is built on two sim.Queues, mirroring
// SeqReader: filled blocks flow writer-ward through queue, drained
// buffers flow back through freeq.
type SeqWriter struct {
	flush     FlushFn
	blockSize int
	nbufs     int
	writers   int

	started bool
	closed  bool
	free    [][]byte   // synchronous-path free list (engine moves it into freeq)
	freeq   *sim.Queue // []byte, capacity nbufs
	queue   *sim.Queue // flushItem, capacity nbufs
	errs    []error
	g       sim.Group
}

// NewSeqWriter builds a deferred writer with nbufs buffers and `writers`
// flush processes (0 = synchronous Submit).
func NewSeqWriter(flush FlushFn, blockSize, nbufs, writers int) (*SeqWriter, error) {
	if blockSize <= 0 {
		return nil, fmt.Errorf("buffer: block size %d", blockSize)
	}
	if nbufs < 1 {
		return nil, fmt.Errorf("buffer: need at least 1 buffer, got %d", nbufs)
	}
	if writers < 0 {
		return nil, fmt.Errorf("buffer: negative writer count")
	}
	if writers > nbufs {
		writers = nbufs
	}
	return &SeqWriter{flush: flush, blockSize: blockSize, nbufs: nbufs, writers: writers,
		free: getFrames(blockSize, nbufs)}, nil
}

// NewSeqWriterExtent builds a deferred writer whose streaming unit is an
// extent of up to `extent` blocks over a stream of total blocks: the
// producer assembles extent × blockSize buffers (Submit index = extent
// number) and each flush covers the whole extent in a single FlushRun
// call — one coalesced device request per extent. The final extent is
// clamped to the stream length, so only its valid prefix is written.
func NewSeqWriterExtent(flush FlushRun, blockSize int, total int64, extent, nbufs, writers int) (*SeqWriter, error) {
	if extent < 1 {
		extent = 1
	}
	if blockSize <= 0 {
		return nil, fmt.Errorf("buffer: block size %d", blockSize)
	}
	wrapped := func(ctx sim.Context, e int64, buf []byte) error {
		first := e * int64(extent)
		n := int64(extent)
		if first+n > total {
			n = total - first
		}
		if n <= 0 {
			return fmt.Errorf("buffer: extent %d beyond stream of %d blocks", e, total)
		}
		return flush(ctx, first, int(n), buf[:n*int64(blockSize)])
	}
	return NewSeqWriter(wrapped, blockSize*extent, nbufs, writers)
}

// startWriters launches the flush processes (engine mode only), moving
// the buffer pool into the queues. Writers drain the flush queue until
// Close closes it, returning each drained buffer to the pool.
func (w *SeqWriter) startWriters(p *sim.Proc) {
	w.started = true
	w.freeq = sim.NewQueue(w.nbufs)
	w.queue = sim.NewQueue(w.nbufs)
	for _, b := range w.free {
		w.freeq.Put(p, b)
	}
	w.free = w.free[:0]
	for i := 0; i < w.writers; i++ {
		w.g.Spawn(p.Engine(), "write-behind", func(io *sim.Proc) {
			for {
				v, ok := w.queue.Get(io)
				if !ok {
					return
				}
				item := v.(flushItem)
				if err := w.flush(io, item.idx, item.buf); err != nil {
					w.errs = append(w.errs, fmt.Errorf("buffer: flush block %d: %w", item.idx, err))
				}
				w.freeq.Put(io, item.buf)
			}
		})
	}
}

// Acquire obtains an empty buffer to fill (waiting for one under an
// engine; erroring if exhausted without one).
func (w *SeqWriter) Acquire(ctx sim.Context) ([]byte, error) {
	if w.closed {
		return nil, fmt.Errorf("buffer: writer closed")
	}
	if p, engine := ctx.(*sim.Proc); engine && w.writers > 0 && w.started {
		v, ok := w.freeq.Get(p)
		if !ok {
			return nil, fmt.Errorf("buffer: writer closed")
		}
		return v.([]byte), nil
	}
	if len(w.free) == 0 {
		return nil, fmt.Errorf("buffer: no free buffer (synchronous writer leak?)")
	}
	buf := w.free[len(w.free)-1]
	w.free = w.free[:len(w.free)-1]
	return buf, nil
}

// Submit hands a filled buffer over for (deferred) writing as stream
// block idx. Under an engine with writer processes it returns before the
// transfer; otherwise it flushes synchronously.
func (w *SeqWriter) Submit(ctx sim.Context, idx int64, buf []byte) error {
	if w.closed {
		return fmt.Errorf("buffer: writer closed")
	}
	p, engine := ctx.(*sim.Proc)
	if !engine || w.writers == 0 {
		err := w.flush(ctx, idx, buf)
		w.free = append(w.free, buf)
		return err
	}
	if !w.started {
		w.startWriters(p)
	}
	// Never parks: every queued item holds a distinct pool buffer, so
	// the queue holds at most nbufs items.
	w.queue.Put(p, flushItem{idx: idx, buf: buf})
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
		w.queue.Close(p)
		w.g.Wait(p)
		for v, ok := w.freeq.TryGet(p); ok; v, ok = w.freeq.TryGet(p) {
			w.free = append(w.free, v.([]byte))
		}
	}
	putFrames(w.free)
	w.free = nil
	return errors.Join(w.errs...)
}

// Package pario is a Go reproduction of the parallel file system design
// from T. W. Crockett, "File Concepts for Parallel I/O" (ICASE Interim
// Report 7 / NASA CR-181843, 1989).
//
// It provides parallel files — files designed for concurrent access by
// the processes of a parallel program — over an array of simulated
// direct-access storage devices, with the paper's six standard
// organizations as access methods:
//
//	S    sequential            OpenReader / OpenWriter
//	PS   partitioned           OpenPartReader / OpenPartWriter
//	IS   interleaved (wrapped) OpenInterleavedReader / OpenInterleavedWriter
//	SS   self-scheduled        OpenSelfSched (shared handle)
//	GDA  global direct access  OpenDirect
//	PDA  partitioned direct    OpenDirectPart (a Direct checked to owned blocks)
//
// Every file also presents the paper's global view — a conventional
// sequential byte stream — through OpenGlobalReader/OpenGlobalWriter, so
// ordinary sequential software can consume parallel files.
// OpenGlobalReader returns an io.ReadSeekCloser that is a byte cursor
// over the S stream view under TunedOptions: whatever the size of the
// program's Reads, the drives see 32-block extents fetched four buffers
// ahead by a dedicated I/O process. Each prefetched extent is a snapshot;
// a Seek ahead inside the extents already read is free, any other
// restarts read-ahead; Close is optional (TestGlobalViewReadAheadWin).
//
// # Extent I/O
//
// Every layer moves data in extents — runs of physically contiguous
// blocks — as well as single blocks. A Disk services a contiguous run
// as one queued request (one controller overhead, one seek, one
// rotational latency, then N blocks at the streaming rate); layouts
// decompose any logical block range into per-device physically
// contiguous runs in closed form (blockio.Layout.MapRun); and a Set
// issues those runs in parallel across devices. A range has no entry
// point of its own — it is the one-segment case of the descriptor the
// next section introduces — and neither has a single block, the
// one-block segment that a buffer pool's miss or write-back issues. Stream
// access methods opt in through Options.ExtentBlocks: prefetchers and
// write-behind then move whole extents per device request, which cuts
// the modeled per-request overhead of a sequential scan by the
// coalescing factor. The default remains one block per request, the
// paper's model; see BenchmarkExtentCoalescing for the measured win.
//
// # Vectored I/O
//
// Extent I/O only coalesces runs that are contiguous in both the
// logical file and the caller's buffer. Declustered layouts
// (StripeUnitFS smaller than the transfer) and strided access patterns
// break that, so the whole data-movement spine is built on a
// scatter/gather request descriptor instead: a Vec lists (logical block
// range, buffer offset) segments in any order, and Set.ReadVec/WriteVec
// merge the pieces that land physically adjacent on one device — across
// segments, regardless of logical adjacency — into gather runs
// (listio-style coalescing). A disk services a gather run as one queued
// request (one overhead + seek + rotational latency, then N blocks at
// the streaming rate) scattering into or gathering from the strided
// buffer. The vectored run is the only transfer a Store implementation
// (plain disks, parity, mirroring) has, and every transfer reaches it
// down one pipeline in internal/blockio: describe (a Vec) → map (pieces
// sorted and merged into runs, within a file or across the files of a
// BatchVec) → transform (optionally, data sieving) → issue (one loop,
// which also records every transfer on the flight recorder's "blockio"
// track). Stream prefetchers
// route each batch of extents through the same descriptor, bound to
// the batch's buffers as one memory list, so a unit-1 declustered scan
// collapses to one request per device per batch; a direct-access
// handle's buffer pool writes back its dirty blocks the same way, one
// gather run per physical run. See BenchmarkVectoredScan and
// `pariobench -run noncontig` for the measured win.
//
// # Collective I/O
//
// Vectored descriptors stop at one process and one file. The collective
// layer lifts both limits with two-phase collective I/O in the style of
// MPI-IO's noncontiguous-access optimization: the ranks of a parallel
// program (GoRanks / internal/mpp) each submit a request list — block
// ranges over one or several files of a FileGroup sharing the device
// array — and OpenCollective's handle executes them
// together. The union access footprint is split into contiguous file
// domains, one per aggregator rank; ranks exchange their pieces with the
// aggregators over the modeled interconnect (sparse exchange rounds with
// per-byte link cost, RankGroup.SetLink); and each aggregator issues its whole
// domain as one cross-file batch (BatchVec), merging pieces that are
// physically adjacent on a device into single requests even across
// files. An 8-rank strided checkpoint that costs one device request per
// record independently collapses to one request per device per
// aggregator — trading cheap interconnect traffic for expensive device
// requests; TestCollectiveCoalescingWin enforces ≥4× fewer requests and
// ≥2× modeled throughput, and `pariobench -run collective` prints the
// comparison. Independent (non-collective) paths are untouched: with the
// default free link model their timing stays bit-identical to the
// paper's.
//
// # Contention-aware collective I/O
//
// Interconnect traffic stops being cheap once the network is shared.
// RankGroup.SetBisection models a shared-link (bisection bandwidth)
// pool: every collective charges the exchange's total cross-link volume
// against the pool, so exchange time scales with rank count × message
// volume the way real interconnects contend (self-messages are local
// copies and never charged; SetLink's per-process costs compose on
// top). Under contention, aggregator placement matters:
// CollectiveOptions.Locality assigns each file domain to the rank
// owning the largest share of its footprint instead of round-robin rank
// order, so nearly-aligned access patterns keep most bytes local —
// Collective.LastStats reports the measured split (bytes moved vs bytes
// local) and RankGroup.Traffic the link volume. TestLocalityWin
// enforces ≥2× fewer bytes moved and better modeled time on a contended
// 8-rank checkpoint; `pariobench -run contended` sweeps rank count ×
// link bandwidth. A collective write whose ranks overlap is refused on
// every rank with one error, whatever the route, as MPI-IO leaves such
// writes undefined. All knobs are opt-in; the free, round-robin default stays bit-identical
// (TestDefaultModelPinned).
//
// # Chunked two-phase I/O
//
// A collective run in one round is still a barrier: plan, then the WHOLE
// exchange, then the WHOLE access, so the drives idle while bytes cross
// the interconnect and the interconnect idles while the drives stream.
// One executor runs every two-phase call as rounds of exchange feeding
// rounds of access (ROMIO's one loop parameterised by cb_buffer_size),
// and that schedule is its one-round case.
// CollectiveOptions.ChunkBytes bounds each aggregator's staging memory
// and turns the collective into a software pipeline: every file domain is cut into chunk-aligned sub-domains and
// the exchange of chunk k+1 runs concurrently with the device access of
// chunk k (reads mirror this — the access of chunk k+1 overlaps the
// delivery of chunk k), double-buffered through two chunk staging
// buffers per domain. The chunked exchange charges per-message setup
// once per communicating pair for the whole collective (not per chunk),
// concurrent exchanges share the bisection pool's reservation timeline
// instead of each seeing its full bandwidth (pools can even be shared
// between rank groups via RankGroup.SetBisectionPool), and each
// domain's device requests come from a BatchPlan prepared once — mapped,
// sorted and merged up front — so chunking never re-plans. The price is
// per-chunk request overhead; the win is overlap, reported by
// Collective.LastStats (ExchangeTime / AccessTime / Overlap) and
// enforced by TestPipelineWin (≥1.3× modeled time on contended
// checkpoints, link-bound and disk-bound). `pariobench -run
// pipeline` prints the comparison. ChunkBytes 0 (the default) sets no
// bound: one round, bit-identical to the single-shot schedule of earlier
// releases, unless StrategyAuto prices a deeper pipeline cheaper (see
// "Data sieving & strategy selection") — staging is at most one domain
// per owned domain either way, since a depth-d pipeline holds two chunks
// of domain/d.
//
// # I/O as a service (nonblocking collectives, multi-job QoS)
//
// Every collective so far is synchronous: the calling ranks themselves
// drive the device phase and block until it drains. NewIOServer turns
// the device array into a service in the style of dedicated I/O nodes
// (ViPIOS, PVFS servers): server processes own device access, each
// client job gets its own request lane (IOServer.AddJob), and the
// server multiplexes lanes under a pluggable QoS policy — IOFIFO
// (arrival order), IOFairShare (start-time fair queuing over served
// bytes), IOPriority (strict priority levels, IOJobConfig.Priority). A
// lane's queue is unbounded: submitting never parks. A collective
// opened with CollectiveOptions.Service routes its device phase
// through a lane and gains the split-collective forms
// Collective.IWriteAll / IReadAll: plan and exchange run inline (they
// are collective by nature), the device phase is enqueued, and the
// returned IOHandle lets every rank overlap its own computation before
// the collective Wait (Test polls locally). That computation must leave
// the call's buffer alone until Wait returns: the server's drives gather
// a write's bytes straight out of it and scatter a read's bytes straight
// into it whenever they serve the call, so a read's bytes may land before
// Wait returns, and are all there only once it has. The unit of
// submission is the call: its buffer space is every domain's pieces of
// the ranks' own buffers and the last rank out of the exchange submits
// ONE request
// — every domain in one prepared BatchPlan, merged across domains, so a
// checkpoint of a declustered file reaches each drive as one sequential
// run (TestServerDirectedWin: 64 lane requests and 1 024 device
// requests a call become 1 and 16, ≥ 3× modeled makespan). Under
// StrategyAuto a nonblocking call is priced like a blocking one, in the
// shape it runs in — the whole exchange then the call-wide request,
// against every rank's own runs issued as they are — and where the
// exchange buys nothing it goes to the server with no exchange round
// and no delivery round: the request is then the ranks' runs, none joined
// to another rank's (TestServerVectoredVictim). The unit of
// service is a window of it: CollectiveOptions.ChunkBytes cuts the call
// plan, a worker issues one window across all drives, and the QoS
// policy chooses again between windows, so a small job waits for a
// window of a bulk call in service, not for the call
// (TestServerWindowsWin: small-job call p98 277 → 157 ms beside a
// 64-rank bully) — while a job alone on the server is handed its windows
// all at once and costs what it would uncut. A failed window ends its
// request: one error, the same on every rank. Outcomes are
// data-identical to the blocking calls under every
// policy — a write's call buffer is final before submission —
// enforced by TestDifferentialMultijob (scheduled == serialized ==
// reference model, 18 seeded scenarios). IOJob.Stats reports per-job
// served bytes, busy time and latency percentiles; TestMultijobQoS
// enforces the QoS wins (fair-share bounds a victim job's p99 under a
// bully's backlog; strict priority cuts it ≥2× vs FIFO) and
// TestMultijobDeterminism pins bit-identical stats across runs.
// Everything is opt-in: without a Service, collectives and their
// modeled times are unchanged (TestDefaultModelPinned).
//
// # Data sieving & strategy selection
//
// Vectored I/O issues one device request per physically contiguous
// gather run — optimal when runs are long, but every hole in a pattern
// costs a full request (overhead + seek + rotational latency).
// StrategySieved — one of the strategies Set.Transfer, the Set's one
// entry point for both directions, takes — instead moves each device's
// whole covering span as ONE request (two for writes: a
// read-modify-write, serialized per device through ordered locks so
// concurrent sieved writers with disjoint blocks stay safe), scattering the requested pieces straight into the caller's
// buffer and the hole blocks into pooled scratch — ROMIO-style data
// sieving, applied as a transform of the mapped runs.
// No fixed choice wins everywhere ("Noncontiguous I/O through PVFS",
// PAPERS.md): sieving wins dense patterns, vectored wins sparse ones,
// and the two-phase collective wins when ranks' pieces interleave so
// the union footprint coalesces though no single rank's view does —
// until link contention inverts that trade again. Options.Strategy and
// CollectiveOptions.Strategy expose the choice: StrategyVectored,
// StrategySieved and StrategyCollective force a path, the zero value
// keeps each layer's historical default, and StrategyAuto prices the
// candidate routes per operation and picks the cheapest — one
// self-tuning knob where tuning previously meant picking fixed
// mechanisms per workload. There is no cost model beside the machine
// model: a route is priced by the code that would charge it. Its device
// side is a dry issue — the fifth stage of the transfer pipeline: the
// very runs the route would send (every rank's mapped descriptor, their
// sieved covering runs with the write-back's second pass, the windows of
// the call's prepared plan) walked through a head tracker and a queue per
// drive, served in the order the drive's discipline serves them (arrival
// order or the elevator's sweep, waiting neighbours merged where the
// drive merges), each request charged by the drive's own service-time
// function for the cylinders the head really crosses. For one process,
// and for any number issuing at one instant, the dry price equals the
// modeled time of the issue to the nanosecond (FuzzDryIssue); a Set's
// own StrategyAuto prices from where the heads stand, a collective's from
// parked heads, because its schedule is priced once and replayed. The
// exchange side is the rank group's own round charge on a scratch pool
// (RankGroup's link and bisection models), and rounds of the two meet in
// the executor's own hand-off. What was priced is what runs: the mapped
// descriptors and the prepared plan go on to issue. The
// two-phase route has two candidates of its own: file domains
// contiguous in the files (the logical partition every fixed strategy
// and every nonblocking two-phase call uses) and file domains cut at drive
// boundaries (domain a is the footprint on drive a, so an aggregator's
// access is one sequential run on its own drive — the paper's §5
// strategy), the latter at whatever pipeline depth prices cheapest:
// CollectiveOptions.ChunkBytes is an upper bound on the chunk — 0, no
// bound, is a bound too: a whole domain — and each chunk is priced cut
// in 2, 4, 8, …, every round's requests through the dry issue, ties to
// the shallower, so a free interconnect stays at one round
// (Collective.LastDepth reports the depth chosen,
// TestPipelineDepthPriced holds it to the fastest and
// TestUnboundedDepthPriced holds the unbounded handle to the bounded
// one's choice).
// Collective.LastRoute says "two-phase" for either,
// Collective.LastPrices what every candidate was priced at and
// Collective.LastPredicted the chosen one's price; with a recorder
// attached the prices and price ÷ modeled time of every call are
// histograms (collective.<ranks>.plan.price_ms.*,
// .plan.predicted_over_realised) and `parioctl trace` prints them.
// TestAlignedDomainsWin enforces the aligned partition's win on a
// declustered checkpoint and the refusal on rank-aligned slabs.
// TunedProfile and TunedOptions set StrategyAuto.
// TestStrategyAutoWins enforces that Auto is no slower than the best
// fixed strategy on every configuration of a density × rank-count ×
// link-bandwidth sweep, strictly beats each fixed strategy on at least
// one, and prices its pick within 5 % of what the call then takes;
// `pariobench -run strategy` prints the sweep. The paper defaults are
// untouched: StrategyDefault keeps every pinned modeled time
// bit-identical (TestDefaultModelPinned).
//
// # Plan capture & replay
//
// Iterative checkpoints issue the SAME request lists every iteration
// with fresh payloads, yet each collective call used to rebuild its
// whole schedule from scratch — domain assignment, route choice, chunk
// windows, per-pair message shapes, device batch plans. Every
// Collective now carries a transparent schedule cache: every call
// fingerprints the request lists (an FNV-1a hash plus an exact
// signature compare, so collisions cannot alias), and a schedule is
// admitted on the second sight of its lists: the first call builds and
// validates the plan into the handle's one-shot schedule, whose memory
// every call with lists the handle has not seen rewrites, so a workload
// whose lists never repeat allocates no schedule; the second call admits
// that schedule as it is when no other such call came between, and
// builds it again into memory of its own when one did — then it is a
// miss in PlanCacheStats. Nonblocking calls are admitted on their first
// call. Admitted calls with the same shape replay the frozen schedule,
// doing only buffer rebinding and payload packing. The cache is a small
// per-handle LRU of 8 schedules,
// invalidated whenever the answer could change: a handle's options are
// fixed when it is opened, and every interconnect reconfiguration
// (RankGroup.SetLink / SetBisection / SetBisectionPool) bumps a model
// epoch the cache stamps its entries against; Collective.InvalidateSchedules drops
// them by hand, before every call for a caller that wants none replayed. Replay threads through every route — two-phase at one
// round or many, vectored, sieved, and the nonblocking server path — and
// is invisible to the virtual world: modeled times, stats and probe
// traces are bit-identical cached or uncached (the win is host
// wall-clock and allocations; ≥3× fewer allocations per replayed
// iteration is enforced by TestPlanReplayWin on a 1024-rank ×
// 64-iteration contended loop, wall-clock is the benchmark's to judge).
// Collective.PlanCacheStats reports hits, misses, evictions and
// invalidations (CollectiveCacheStats);
// TestReplayDeterminism512 fences determinism, the differential
// harness's replay phases diff replayed iterations against fresh-plan
// and reference-model execution, and `pariobench -run replay`
// sweeps iterations × ranks cached vs uncached.
//
// Profiles bundle the knobs grown across all these layers:
// PaperProfile is the pinned 1989 model, TunedProfile the "modern
// defaults" (extents, SCAN scheduling with queue merging, a modeled
// interconnect, locality-aware chunked collectives), and
// NewProfiledMachine builds a machine under one. `pariobench -run
// profile` compares them on the checkpoint
// scenario; TestTunedProfileWins enforces the tuned win.
//
// # Flight recorder
//
// The whole stack is threaded with an always-compiled, nil-default
// flight recorder (NewRecorder, re-exported from internal/probe):
// attach one to a machine with Machine.SetProbe and every layer records
// spans stamped with the virtual clock — engine dispatch counters, mpp
// exchange rounds and bisection-pool waits (rank groups launched via
// GoRanks attach automatically under their name), per-disk queue-wait
// vs service intervals, blockio merged batch runs, collective
// plan/exchange/access per chunk with causal parent links, and I/O
// server admission/wait/service per lane (IOServer.SetProbe). Because
// timestamps are virtual, recording never perturbs modeled time —
// every pinned result is bit-identical with tracing on — and two runs
// of one scenario export byte-identical traces. Export three ways:
// WriteChromeTrace emits Chrome trace-event JSON loadable in Perfetto
// (ui.perfetto.dev) or chrome://tracing with one named track per
// rank/device/lane; Recorder.UtilizationTable renders per-resource
// busy-interval unions; Recorder.Metrics().Table() snapshots the typed
// metrics registry (counters, pull gauges, histograms). With no
// recorder attached (the default) every hook is a nil-receiver no-op:
// zero work, zero allocations (BenchmarkTraceOverhead measures the
// delta). `pariobench -run <id> -trace out.json -metrics` records any row;
// `parioctl trace out.json` summarizes a trace offline.
//
// # Execution model
//
// The library runs over a deterministic virtual-time engine (NewEngine):
// simulated processes are goroutines that the engine schedules one at a
// time, devices charge modeled seek/rotation/transfer delays, and
// results are bit-for-bit reproducible. Concurrent use of shared handles
// requires the engine. Single-goroutine use (tools, tests, format
// conversion) can instead pass a Wall context, under which devices
// complete instantly.
//
// # Simulation scalability
//
// Modeled time and wall-clock time are deliberately decoupled: what a
// scenario costs the simulated machine is fixed by the model, and the
// engine is built so that what it costs the host grows with actual
// activity, not with machine size. The engine keeps pending events in
// an indexed heap with in-place re-schedule, runs each process as a
// coroutine that its Run loop resumes with one coroutine switch, and
// recycles process shells (struct + coroutine) across spawns; the
// exchange layer's sparse
// collectives (internal/mpp's SparseExchange, whose Round charges every
// exchange; AlltoallvSparse is its one-round form) carry
// explicit message lists with by-reference payload delivery (or a size
// alone) and pooled receive buffers, so an exchange round costs
// O(messages actually sent), not O(ranks²) — and, in a pipelined
// collective, not O(ranks) either: the ranks that own no file domain
// post all their rounds at once and park until the exchange is over
// (SparseExchange.Post), so only the aggregators take the engine's
// hand-offs round by round; the collective layer sizes its messages
// through the plan's participation indexes, and its aggregators copy
// each byte once, between the ranks' buffers and their staging. The
// sparse-exchange guarantee is exact: charging is computed from the
// same message and byte totals, between the same barriers, as the dense
// forms, so modeled results are bit-identical — only the wall-clock
// cost of producing them changes (TestDefaultModelPinned,
// TestEngineScaleWin and TestPipelinedDeterminism512 enforce this from
// three directions). A 4096-rank × 256-drive contended pipelined
// checkpoint simulates in well under a wall-clock second per modeled
// second; `pariobench -run scale` prints the sweep, and pariobench's
// -cpuprofile/-memprofile flags capture pprof profiles of the simulator
// itself.
//
// # Quickstart
//
//	machine := pario.NewMachine(4) // 4 drives, one volume, virtual time
//	f, _ := machine.Volume.Create(pario.Spec{
//	        Name: "results", Org: pario.OrgPartitioned,
//	        RecordSize: 4096, NumRecords: 1 << 14, Parts: 4,
//	})
//	machine.Go("writer-0", func(p *pario.Proc) {
//	        w, _ := pario.OpenPartWriter(f, 0, pario.DefaultOptions())
//	        // ... w.WriteRecord(p, rec) ...
//	        w.Close(p)
//	})
//	machine.Run()
//
// See examples/ for complete programs and internal/experiments for the
// paper's evaluation harness.
package pario

import (
	"time"

	"repro/internal/blockio"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/ioserver"
	"repro/internal/mpp"
	"repro/internal/pfs"
	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/volio"
)

// Re-exported fundamental types. The definitions (and detailed
// documentation) live in the internal packages; these aliases are the
// supported public surface.
type (
	// Context supplies time to blocking operations (virtual or wall).
	Context = sim.Context
	// Engine is the deterministic virtual-time scheduler.
	Engine = sim.Engine
	// Proc is a simulated process (implements Context).
	Proc = sim.Proc
	// Group joins spawned processes.
	Group = sim.Group
	// Wall is the no-simulation context for single-goroutine use.
	Wall = sim.Wall

	// Volume is a parallel file system over a device array.
	Volume = pfs.Volume
	// File is a parallel file's metadata handle.
	File = pfs.File
	// Spec holds file creation parameters.
	Spec = pfs.Spec
	// Organization is one of the paper's six file organizations.
	Organization = pfs.Organization
	// Placement selects the physical layout strategy.
	Placement = pfs.Placement
	// Category separates standard from specialized files.
	Category = pfs.Category

	// Options tunes an access method (buffering, read-ahead, write-behind).
	Options = core.Options
	// StreamReader reads S/PS/IS views sequentially.
	StreamReader = core.StreamReader
	// StreamWriter writes S/PS/IS views sequentially.
	StreamWriter = core.StreamWriter
	// SelfSched is the shared SS handle: a cursor over the S stream.
	SelfSched = core.SelfSched
	// Direct is the direct-access handle: GDA from OpenDirect, PDA from
	// OpenDirectPart.
	Direct = core.Direct
	// GlobalReader is the conventional sequential read view (io.ReadSeekCloser).
	GlobalReader = core.GlobalReader
	// GlobalWriter is the conventional sequential write view (io.WriteCloser).
	GlobalWriter = core.GlobalWriter

	// Disk is one simulated direct-access storage device.
	Disk = device.Disk
	// DiskConfig parameterizes a Disk.
	DiskConfig = device.Config
	// Geometry is a disk's layout.
	Geometry = device.Geometry
	// Timing is a disk's service-time model.
	Timing = device.Timing
	// Sched selects a disk queue's scheduling discipline (FCFS or SCAN).
	Sched = device.Sched

	// Recorder is the flight recorder: virtual-clock spans plus a typed
	// metrics registry, nil-default across the whole stack (see the
	// "Flight recorder" section above).
	Recorder = probe.Recorder
	// Span is one recorded interval of virtual time on a trace track.
	Span = probe.Span
	// Metrics is the flight recorder's typed metrics registry
	// (counters, pull gauges, stats.Sample histograms).
	Metrics = probe.Metrics
	// TrackUsage summarizes one trace track's busy-interval union.
	TrackUsage = probe.TrackUsage

	// Vec is the scatter/gather request descriptor: a list of (logical
	// block range, buffer offset) segments moved by Set.Transfer
	// (ReadVec/WriteVec for short) with listio-style physical
	// coalescing. One contiguous range is its
	// one-segment case.
	Vec = blockio.Vec
	// VecSeg is one segment of a Vec.
	VecSeg = blockio.VecSeg
	// Run is a physically contiguous span of a layout, gather-capable
	// via its buffer segments.
	Run = blockio.Run
	// Seg maps one consecutive slice of a gather Run onto the caller's
	// buffer.
	Seg = blockio.Seg
	// Set binds a store, a layout and extent bases into logical-block
	// I/O (File.Set returns a file's Set).
	Set = blockio.Set
	// BatchItem is one file's contribution to a cross-file batch: a
	// descriptor whose offsets address the batch's one buffer space.
	BatchItem = blockio.BatchItem
	// BatchVec is a cross-file scatter/gather request list over Sets
	// sharing one device array, merged physically across files. It is
	// executed through its plan.
	BatchVec = blockio.BatchVec
	// BatchPlan is a BatchVec mapped, sorted and merged once and split
	// into issue windows (BatchVec.Plan; no cuts: one window, the whole
	// batch) — the form every batch is issued in: the pipelined
	// collective's per-chunk device requests, an I/O server's requests.
	BatchPlan = blockio.BatchPlan
	// Strategy selects how noncontiguous transfers execute: a forced
	// path, each layer's historical default (the zero value), or
	// per-operation priced selection (StrategyAuto). See the "Data
	// sieving & strategy selection" doc section.
	Strategy = blockio.Strategy
	// RoutePrices is what StrategyAuto priced every candidate route of a
	// collective call at (Collective.LastPrices).
	RoutePrices = collective.Prices

	// Rank is one process of a parallel program (GoRanks), with the
	// group collectives (Barrier, AlltoallvSparse — one exchange round —
	// and reductions).
	Rank = mpp.Proc
	// RankGroup is a parallel program's process group; SetLink and
	// SetBisection configure its modeled interconnect (per-process and
	// shared-pool), Traffic reports measured cross-link volume.
	RankGroup = mpp.Group
	// Bisection is a shared-link bandwidth pool — a reservation timeline
	// concurrent exchanges queue on. Share one between rank groups with
	// RankGroup.SetBisectionPool to model jobs contending for one
	// interconnect.
	Bisection = mpp.Bisection
	// FileGroup is an ordered set of files opened together for
	// collective access (Volume.OpenGroup).
	FileGroup = pfs.FileGroup
	// Collective is the two-phase collective-I/O handle: per-rank
	// request lists executed via aggregator file domains.
	Collective = collective.Collective
	// VecReq is one rank's scatter/gather request against one file of a
	// collective's group.
	VecReq = collective.VecReq
	// CollectiveOptions tunes a Collective (aggregator count,
	// locality-aware domain assignment, pipeline chunking, route
	// strategy, I/O-server lane).
	CollectiveOptions = collective.Options
	// ExchangeStats reports a collective call's exchange split — bytes
	// moved over the interconnect vs bytes kept local on aggregating
	// ranks (Collective.LastStats).
	ExchangeStats = collective.ExchangeStats
	// CollectiveCacheStats is a handle's schedule-cache accounting —
	// hits, misses, evictions, invalidations, live entries
	// (Collective.PlanCacheStats; see "Plan capture & replay").
	CollectiveCacheStats = collective.CacheStats

	// IOServer is the I/O-service subsystem: dedicated server processes
	// own the device array and execute client jobs' request batches
	// under a QoS policy (NewIOServer, IOServer.AddJob / Start / Stop).
	IOServer = ioserver.Server
	// IOServerConfig sets the server's worker count — how many plan
	// windows are in service together, of one call or of several — and
	// QoS policy.
	IOServerConfig = ioserver.Config
	// IOJob is one client job's request lane on an IOServer. A request
	// is a prepared BatchPlan and the buffer space its windows bind to
	// (Submit, or SubmitWritePlan for one buffer) — the one request form; the server
	// issues it a window at a time and chooses among the lanes between
	// windows.
	IOJob = ioserver.Job
	// IOJobConfig names a lane and sets its priority under IOPriority.
	IOJobConfig = ioserver.JobConfig
	// IOJobStats is a lane's accounting snapshot: request and dispatch
	// counts, served bytes, device busy time and latency percentiles.
	IOJobStats = ioserver.JobStats
	// IORequest is one submitted plan's completion ticket.
	IORequest = ioserver.Request
	// IOPolicy selects the server's scheduling policy.
	IOPolicy = ioserver.Policy
	// IOHandle is an in-flight nonblocking collective
	// (Collective.IWriteAll / IReadAll; Wait is collective, Test local).
	// The buffer passed to the call must not change until Wait returns.
	IOHandle = collective.Handle
)

// Organization constants (paper §3).
const (
	OrgSequential        = pfs.OrgSequential
	OrgPartitioned       = pfs.OrgPartitioned
	OrgInterleaved       = pfs.OrgInterleaved
	OrgSelfScheduled     = pfs.OrgSelfScheduled
	OrgGlobalDirect      = pfs.OrgGlobalDirect
	OrgPartitionedDirect = pfs.OrgPartitionedDirect
)

// Placement constants (paper §4).
const (
	PlaceAuto        = pfs.PlaceAuto
	PlaceStriped     = pfs.PlaceStriped
	PlacePartitioned = pfs.PlacePartitioned
	PlaceInterleaved = pfs.PlaceInterleaved
)

// Category constants (paper §2).
const (
	Standard    = pfs.Standard
	Specialized = pfs.Specialized
)

// Self-scheduled handle directions.
const (
	SSRead  = core.SSRead
	SSWrite = core.SSWrite
)

// Disk queue scheduling disciplines.
const (
	SchedFCFS = device.FCFS
	SchedSCAN = device.SCAN
)

// Access-strategy constants (Options.Strategy /
// CollectiveOptions.Strategy; see "Data sieving & strategy selection").
const (
	StrategyDefault    = blockio.StrategyDefault
	StrategyVectored   = blockio.StrategyVectored
	StrategySieved     = blockio.StrategySieved
	StrategyCollective = blockio.StrategyCollective
	StrategyAuto       = blockio.StrategyAuto
)

// I/O server scheduling policies.
const (
	IOFIFO      = ioserver.FIFO
	IOFairShare = ioserver.FairShare
	IOPriority  = ioserver.Priority
)

// NewIOServer creates an I/O server (add job lanes with AddJob, then
// Start it on the engine; Stop drains and joins the workers).
var NewIOServer = ioserver.New

// Flight-recorder entry points (see the "Flight recorder" doc section).
var (
	// NewRecorder creates an empty flight recorder; attach it with
	// Machine.SetProbe (and IOServer.SetProbe for server lanes).
	NewRecorder = probe.New
	// WriteChromeTrace writes a recorder's spans as deterministic Chrome
	// trace-event JSON for Perfetto / chrome://tracing.
	WriteChromeTrace = probe.WriteChromeTrace
	// ReadChromeTrace parses trace-event JSON written by WriteChromeTrace
	// back into a Recorder for offline summarization.
	ReadChromeTrace = probe.ReadChromeTrace
)

// NewEngine returns a fresh virtual-time engine.
func NewEngine() *Engine { return sim.NewEngine() }

// NewWall returns a wall-clock context (no modeled delays).
func NewWall() *Wall { return sim.NewWall() }

// DefaultOptions is the paper-recommended access configuration: double
// buffering, one dedicated I/O process, early release.
func DefaultOptions() Options { return core.DefaultOptions() }

// NewDisk builds a simulated drive (zero-value config fields default to
// the 1989 drive the paper assumes: ~16 ms average seek, 3600 RPM,
// 1.5 MB/s, 4 KiB blocks).
func NewDisk(cfg DiskConfig) *Disk { return device.New(cfg) }

// NewVolume formats a parallel file system over identical disks.
func NewVolume(disks []*Disk) (*Volume, error) {
	store, err := blockio.NewDirect(disks)
	if err != nil {
		return nil, err
	}
	return pfs.NewVolume(store), nil
}

// Access-method constructors (the paper's organizations, §3).
var (
	OpenReader            = core.OpenReader
	OpenWriter            = core.OpenWriter
	OpenPartReader        = core.OpenPartReader
	OpenPartWriter        = core.OpenPartWriter
	OpenInterleavedReader = core.OpenInterleavedReader
	OpenInterleavedWriter = core.OpenInterleavedWriter
	OpenSelfSched         = core.OpenSelfSched
	OpenDirect            = core.OpenDirect
	OpenDirectPart        = core.OpenDirectPart
	OpenGlobalReader      = core.OpenGlobalReader
	OpenGlobalWriter      = core.OpenGlobalWriter
)

// OpenBlockRangeReader opens a sequential read view over the contiguous
// paper-block range [first, end) — an ad-hoc PS-style partition
// independent of the file's own partition table, and so the §5 PS-style
// alternate view of a file laid out otherwise (examples/workqueue reads
// each server's static share this way). It is not one of the paper's six
// organizations, hence its separate listing here.
var OpenBlockRangeReader = core.OpenBlockRangeReader

// Collective I/O entry points: OpenCollective builds the two-phase
// handle over a FileGroup (Volume.OpenGroup).
var (
	OpenCollective = collective.Open
	NewBisection   = mpp.NewBisection
)

// SaveVolume persists a volume and its devices to a host directory;
// LoadVolume restores it (see cmd/parioctl).
var (
	SaveVolume = volio.Save
	LoadVolume = volio.Load
)

// Profile bundles the cross-layer tuning knobs into one named
// configuration, so tools and applications can switch between the
// paper's model and the grown stack's recommendations in one place.
// PaperProfile is the 1989 baseline every pinned test enforces;
// TunedProfile is the ROADMAP's "modern defaults".
type Profile struct {
	Name string
	// Access tunes the stream/direct access methods (core.Options).
	Access Options
	// Sched and MergeQueued configure every drive's queue.
	Sched       Sched
	MergeQueued bool
	// LinkMsg/LinkBytes/Bisection configure a rank group's modeled
	// interconnect (zero values leave the respective model off).
	LinkMsg   time.Duration
	LinkBytes float64
	Bisection float64
	// Collective tunes collective handles opened under the profile.
	Collective CollectiveOptions
}

// PaperProfile is the paper's configuration: block-at-a-time transfers,
// FCFS queues, a free interconnect, single-shot round-robin collectives.
// Machines and collectives built from it keep the paper's modeled
// shapes bit-identical.
func PaperProfile() Profile {
	return Profile{Name: "paper", Access: DefaultOptions()}
}

// TunedProfile is the "modern defaults" profile: 32-block extents
// through four buffers, SCAN disk scheduling with queue merging, a
// modeled interconnect (100 MB/s links, 10 µs per message, a 50 MB/s
// shared bisection pool — generous late-era numbers that make
// communication real but still cheaper than seeks), and collectives
// with locality-aware aggregator domains pipelined through chunks of at
// most 1 MiB under per-call strategy selection (StrategyAuto — see "Data
// sieving & strategy selection"). What that buys depends on the call,
// because Auto prices it: a 16 MiB checkpoint of 512 ranks on a
// declustered file over 32 drives runs two-phase on the drive-aligned
// partition — 32 file domains of 512 KiB, one per drive, each cut in
// eight 64 KiB chunks so the exchange of each overlaps the write of the
// one before (eight rounds, 256 device requests, the drives busy nine
// tenths of the call; the 1 MiB chunk is an upper bound that only caps
// staging — the depth is priced, the same with ChunkBytes 0 — and the
// logical partition is 1 024 requests in one round) —
// while ranks that each own a contiguous slab keep logical domains or
// skip the exchange altogether. Every knob is one of the opt-in
// mechanisms grown since PR 1;
// TestTunedProfileWins enforces that the bundle beats PaperProfile on
// the checkpoint scenario even though the paper's interconnect is free.
func TunedProfile() Profile {
	return Profile{
		Name:        "tuned",
		Access:      core.TunedOptions(),
		Sched:       SchedSCAN,
		MergeQueued: true,
		LinkMsg:     10 * time.Microsecond,
		LinkBytes:   100e6,
		Bisection:   50e6,
		Collective: CollectiveOptions{
			Locality:   true,
			ChunkBytes: 1 << 20,
			Strategy:   StrategyAuto,
		},
	}
}

// ConfigureRanks applies the profile's interconnect model to a rank
// group (call before the simulation runs the group's collectives).
func (pf Profile) ConfigureRanks(g *RankGroup) {
	if pf.LinkMsg != 0 || pf.LinkBytes != 0 {
		g.SetLink(pf.LinkMsg, pf.LinkBytes)
	}
	if pf.Bisection > 0 {
		g.SetBisection(pf.Bisection)
	}
}

// Machine bundles an engine, a homogeneous drive array and one volume —
// the typical experiment/application setup.
type Machine struct {
	Engine *Engine
	Disks  []*Disk
	Volume *Volume

	rec *Recorder // flight recorder (nil: detached)
}

// SetProbe attaches a flight recorder across the machine: the engine's
// dispatch metrics, every disk's service/queue-wait tracks, and the
// volume store's batch track. Rank groups launched by GoRanks after
// this call attach automatically under their name prefix. Pass nil to
// detach. Recording reads the virtual clock only, so modeled times are
// bit-identical with and without a recorder.
func (m *Machine) SetProbe(r *Recorder) {
	m.rec = r
	m.Engine.SetProbe(r)
	for _, d := range m.Disks {
		d.SetProbe(r)
	}
	if direct, ok := m.Volume.Store().(*blockio.Direct); ok {
		direct.SetProbe(r)
	}
}

// NewMachine builds a virtual-time machine with n default 1989 drives.
func NewMachine(n int) *Machine {
	return NewProfiledMachine(n, PaperProfile())
}

// NewProfiledMachine builds a virtual-time machine with n default 1989
// drives whose queues follow the profile (scheduling discipline, queue
// merging). The profile's access and collective options are for the
// caller to pass when opening handles; ConfigureRanks applies its
// interconnect to rank groups.
func NewProfiledMachine(n int, pf Profile) *Machine {
	e := sim.NewEngine()
	disks := device.NewDrives(n, device.Config{Engine: e, Sched: pf.Sched, MergeQueued: pf.MergeQueued})
	vol, err := NewVolume(disks)
	if err != nil {
		// Unreachable: identical fresh disks always form a valid store.
		panic(err)
	}
	return &Machine{Engine: e, Disks: disks, Volume: vol}
}

// Go launches a simulated process.
func (m *Machine) Go(name string, fn func(p *Proc)) { m.Engine.Go(name, fn) }

// GoRanks launches an n-rank parallel program on the machine and returns
// its group (e.g. to configure the interconnect with SetLink before
// Run). The ranks are joined by Run like any other processes.
func (m *Machine) GoRanks(n int, name string, fn func(r *Rank)) *RankGroup {
	g, _ := mpp.Run(m.Engine, n, name, fn)
	if m.rec != nil {
		g.SetProbe(m.rec, name)
	}
	return g
}

// Run executes the simulation to completion and returns the engine error
// (nil, or a deadlock report).
func (m *Machine) Run() error { return m.Engine.Run() }

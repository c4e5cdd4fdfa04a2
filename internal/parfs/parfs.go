// Package parfs models a Lustre-like parallel file system (the paper runs
// against Tianhe-2's H2FS) on top of the discrete-event engine. It captures
// exactly the mechanisms behind the paper's I/O observations:
//
//   - every file lives on one object storage target (OST); different files
//     land on different OSTs with high probability (§4.1.3), modelled by
//     round-robin placement;
//   - an OST serves a bounded number of requests concurrently; excess
//     readers queue ("processors lining up for disk resources", §3.1);
//   - a request costs one seek per disk-addressing operation plus the
//     transfer time θ per byte (Table 1);
//   - the backbone between storage and compute nodes supports a bounded
//     number of full-rate streams, so total I/O bandwidth saturates once
//     enough concurrent groups are active — the flattening of Figure 10.
package parfs

import (
	"fmt"

	"senkf/internal/faults"
	"senkf/internal/sim"
	"senkf/internal/trace"
)

// Config describes the file system geometry and service times.
type Config struct {
	OSTs              int     // number of object storage targets
	ConcurrencyPerOST int     // concurrent requests an OST serves at full rate
	SeekTime          float64 // seconds per disk-addressing operation
	ByteTime          float64 // θ: seconds per byte streamed from one OST
	BackboneStreams   int     // full-rate streams the backbone sustains (0 = unlimited)
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.OSTs <= 0 {
		return fmt.Errorf("parfs: OSTs must be positive, got %d", c.OSTs)
	}
	if c.ConcurrencyPerOST <= 0 {
		return fmt.Errorf("parfs: per-OST concurrency must be positive, got %d", c.ConcurrencyPerOST)
	}
	if c.SeekTime < 0 || c.ByteTime < 0 {
		return fmt.Errorf("parfs: negative service times (seek %g, byte %g)", c.SeekTime, c.ByteTime)
	}
	if c.BackboneStreams < 0 {
		return fmt.Errorf("parfs: negative backbone streams %d", c.BackboneStreams)
	}
	return nil
}

// DefaultConfig is calibrated so the simulated experiments reproduce the
// paper's qualitative I/O behaviour: 8 OSTs at 2 GB/s each, 2 concurrent
// requests per OST at full rate (one file lives on one OST, so a single
// reading group cannot exhaust the system — the premise of the concurrent
// access approach), 30 µs addressing operations, and a backbone that
// sustains 12 full-rate streams (Figure 10 flattens at n_cg ≈ 4–6).
var DefaultConfig = Config{
	OSTs:              8,
	ConcurrencyPerOST: 2,
	SeekTime:          3e-5,
	ByteTime:          0.5e-9,
	BackboneStreams:   12,
}

// Stats accumulates file-system-wide accounting.
type Stats struct {
	Requests    int
	Seeks       int
	BytesRead   float64
	WaitTime    float64 // time spent queueing for OST or backbone capacity
	ServiceTime float64 // time spent actually seeking and streaming
	// Fault accounting (zero without an injected fault plan):
	OutageStalls  int     // reads that hit an OST outage window
	OutageTime    float64 // time spent stalled in outage windows
	DegradedReads int     // reads served at degraded bandwidth
}

// ReadObserver receives one callback per completed read, attributing it to
// its storage target: the OST index, the payload bytes, the read's start
// time on the simulated clock, the time spent waiting (OST queue + backbone
// throttle + outage stalls), the service time actually spent seeking and
// streaming, and whether a degraded-bandwidth or outage fault window was
// hit. The wire-telemetry collector (internal/wire) implements this shape;
// parfs declares its own interface so the plan layer never depends on a
// substrate package.
type ReadObserver interface {
	OnRead(ost int, bytes float64, start, wait, service float64, degraded, outage bool)
}

// FS is a simulated parallel file system.
type FS struct {
	cfg      Config
	env      *sim.Env
	osts     []*sim.Resource
	backbone *sim.Resource
	stats    Stats
	faults   *faults.Plan
	readObs  ReadObserver
	free     []*reader // the slab: readers of no read in flight
}

// New creates a file system inside env.
func New(env *sim.Env, cfg Config) (*FS, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	fs := &FS{cfg: cfg, env: env}
	fs.osts = make([]*sim.Resource, cfg.OSTs)
	for i := range fs.osts {
		fs.osts[i] = sim.NewResource(env, fmt.Sprintf("ost%d", i), cfg.ConcurrencyPerOST)
	}
	if cfg.BackboneStreams > 0 {
		fs.backbone = sim.NewResource(env, "backbone", cfg.BackboneStreams)
	}
	return fs, nil
}

// SetReadObserver installs the per-read OST-attribution observer. A nil
// observer (the default) changes nothing.
func (fs *FS) SetReadObserver(obs ReadObserver) { fs.readObs = obs }

// SetFaults installs a fault plan: reads hitting an OST inside an outage
// window stall (holding their OST slot — requests pile up server-side, as
// on a real file system) until the window closes; reads inside a degraded
// window have their service time multiplied by the window factor. A nil
// plan (the default) changes nothing.
func (fs *FS) SetFaults(pl *faults.Plan) { fs.faults = pl }

// OSTOf returns the storage target holding the given file, mirroring the
// paper's observation that distinct files are likely on distinct disks.
func (fs *FS) OSTOf(file int) int {
	if file < 0 {
		file = -file
	}
	return file % fs.cfg.OSTs
}

// A ReadHook is told of each read of a ReadEach as it completes: the id the
// caller passed, and the read's start and end on the simulated clock.
type ReadHook interface {
	ReadDone(id int, start, end float64)
}

// A Gate is a ReadHook that also paces its ReadEach file by file: how each
// file is read, and whether the chain goes past it at once.
type Gate interface {
	ReadHook
	// Reads returns how file is read: first probes retry probes — reads of one
	// addressing operation and no payload — then n reads of the chain's shape.
	Reads(id, file int) (probes, n int)
	// Pass is called once file's reads are done, and reports whether the chain
	// goes on at once. If not, it has queued w, whose wake-up continues the
	// chain, and recorded p as blocked (a sim.Barrier's Arrive).
	Pass(p *sim.Proc, w sim.Waker, id, file int) bool
}

// Read performs a read of file consisting of `seeks` addressing operations
// and `bytes` payload bytes — a ReadEach of one file — blocking p for
// queueing plus service time. It returns the total time spent.
func (fs *FS) Read(p *sim.Proc, file, seeks int, bytes float64) float64 {
	start := p.Now()
	if !fs.start(p, nil, file, seeks, bytes, nil, 0) {
		p.Park()
	}
	return p.Now() - start
}

// ReadEach is a Read of each of files in turn: a StartEach, and a park
// until its chain hands p back control. It returns the total time.
func (fs *FS) ReadEach(p *sim.Proc, files []int, seeks int, bytes float64, hook ReadHook, id int) float64 {
	start := p.Now()
	if !fs.StartEach(p, files, seeks, bytes, hook, id) {
		p.Park()
	}
	return p.Now() - start
}

// StartEach begins a read of each of files in turn for p, one chain of
// steps — queue at the OST and the backbone, stall through outages, serve,
// release, account — that Run executes in place, and reports true if it is
// already done. Otherwise p waits: the chain wakes it (sim.Proc.Wake) once,
// after the last read. A non-nil hook is told of each read, with id. A hook
// that is also a Gate decides how many reads each file takes and holds the
// chain after each file until the gate lets it pass.
func (fs *FS) StartEach(p *sim.Proc, files []int, seeks int, bytes float64, hook ReadHook, id int) bool {
	return fs.start(p, files, 0, seeks, bytes, hook, id)
}

// reader is one process's read chain in flight: the chain's state, and the
// sim.Waker that Run wakes for each of its steps. Its size is what the slab
// costs per process: a field it gains is paid by every P-EnKF rank.
type reader struct {
	fs                             *FS
	p                              *sim.Proc
	files                          []int
	one                            [1]int // files of a Read
	hook                           ReadHook
	seeks, id, i                   int // i: the file in progress
	rep, osti                      int // its reads done; the read's OST
	bytes, service                 float64
	start, tb, tSrv                float64 // the read's start, its backbone queueing, its service
	waited, stalled                float64
	step                           uint8 // where the next wake-up resumes
	gated, probe, degraded, outage bool  // hook is a Gate; the read is a probe
}

// Where a reader's chain resumes.
const (
	startRead    = iota // read files[i] again, or pass its gate
	ostHeld             // queue at the backbone
	backboneHeld        // price the read
	windows             // stall through outages, then serve
	served              // release, account
	passed              // on to the next file
)

// start runs files (nil: a Read's one file) as a chain whose state comes
// from the slab, grown a block at a time, up to its first wait, and reports
// whether it is already done; from there Run carries it, and its end wakes p.
func (fs *FS) start(p *sim.Proc, files []int, file, seeks int, bytes float64, hook ReadHook, id int) bool {
	if seeks < 0 || bytes < 0 {
		panic(fmt.Sprintf("parfs: invalid read (seeks=%d bytes=%g)", seeks, bytes))
	}
	if len(fs.free) == 0 {
		block := make([]reader, 64)
		for i := range block {
			fs.free = append(fs.free, &block[i])
		}
	}
	r := fs.free[len(fs.free)-1]
	fs.free = fs.free[:len(fs.free)-1]
	*r = reader{fs: fs, p: p, files: files, one: [1]int{file}, seeks: seeks, bytes: bytes, hook: hook, id: id}
	if files == nil {
		r.files = r.one[:]
	}
	_, r.gated = hook.(Gate)
	if len(r.files) > 0 && !r.advance() {
		return false // the chain goes back to the slab before it wakes p
	}
	fs.free = append(fs.free, r)
	return true
}

// Wake continues the chain on Run's goroutine and, after the last file,
// wakes p in place of the event that would have resumed it.
func (r *reader) Wake() {
	if r.step == ostHeld || r.step == backboneHeld || r.step == passed {
		r.p.Unblock() // woken holding the capacity it queued for, or let through its gate
	}
	if r.advance() {
		r.fs.free = append(r.fs.free, r)
		r.p.Wake()
	}
}

// reads returns how files[i] is read: as its gate says, or once.
func (r *reader) reads() (probes, n int) {
	if r.gated {
		return r.hook.(Gate).Reads(r.id, r.files[r.i])
	}
	return 0, 1
}

// shape returns the addressing operations and payload of the read in
// progress: a probe's, or the chain's.
func (r *reader) shape() (int, float64) {
	if r.probe {
		return 1, 0
	}
	return r.seeks, r.bytes
}

// advance runs the chain until it must wait — queued for capacity or at a
// gate, or for a wake-up it scheduled — and reports whether the last file is
// done. The steps are a loop of Reads and gate passes, in its order, with its
// schedule calls.
func (r *reader) advance() bool {
	fs, p, tr := r.fs, r.p, r.fs.env.Tracer()
	for {
		switch r.step {
		case startRead:
			probes, n := r.reads()
			if r.rep == probes+n {
				if r.step = passed; r.gated && !r.hook.(Gate).Pass(p, r, r.id, r.files[r.i]) {
					return false
				}
				continue
			}
			// Queue at the storage target first; a reader waiting for a busy
			// OST must not hold a backbone stream (head-of-line blocking
			// would collapse aggregate bandwidth, which real parallel file
			// systems avoid by queueing requests server-side).
			r.start, r.osti, r.probe = p.Now(), fs.OSTOf(r.files[r.i]), r.rep < probes
			r.stalled, r.degraded, r.outage = 0, false, false
			if r.step = ostHeld; !fs.osts[r.osti].Take(p, r) {
				return false
			}
			fallthrough
		case ostHeld:
			if tr.Enabled() && p.Now() > r.start {
				// The reader queued for OST capacity before service began.
				tr.Instant(fs.osts[r.osti].Name, trace.CatOST, "queued", r.start,
					trace.Arg{Key: "wait", Val: p.Now() - r.start})
			}
			r.step, r.tb = backboneHeld, p.Now()
			if fs.backbone != nil && !fs.backbone.Take(p, r) {
				return false
			}
			fallthrough
		case backboneHeld:
			if fs.backbone != nil && tr.Enabled() && p.Now() > r.tb {
				// Backbone saturation: aggregate bandwidth is the limiter, not
				// the OST — the throttling regime of Figure 10.
				tr.Instant("backbone", trace.CatOST, "throttled", r.tb,
					trace.Arg{Key: "wait", Val: p.Now() - r.tb})
			}
			seeks, bytes := r.shape()
			r.waited = p.Now() - r.start
			r.service = float64(seeks)*fs.cfg.SeekTime + bytes*fs.cfg.ByteTime
			r.step = windows
			fallthrough
		case windows:
			// Fault windows: stall through outages (re-checking, since
			// windows may abut), then apply any degraded-bandwidth factor
			// active at service time.
			w, ok := fs.faults.WindowAt(r.osti, p.Now())
			if ok && w.Factor == 0 {
				stall := w.End - p.Now()
				if tr.Enabled() {
					tr.Instant(fs.osts[r.osti].Name, trace.CatFault, "outage", p.Now(),
						trace.Arg{Key: "stall", Val: stall})
				}
				if reg := tr.Counters(); reg != nil {
					reg.Inc("faults.ost.outages")
				}
				fs.stats.OutageStalls++
				fs.stats.OutageTime += stall
				r.outage, r.stalled = true, r.stalled+stall
				p.After(stall, r)
				return false
			}
			if ok {
				if tr.Enabled() {
					tr.Instant(fs.osts[r.osti].Name, trace.CatFault, "degraded", p.Now(),
						trace.Arg{Key: "factor", Val: w.Factor})
				}
				if reg := tr.Counters(); reg != nil {
					reg.Inc("faults.ost.degraded")
				}
				fs.stats.DegradedReads++
				r.degraded, r.service = true, r.service*w.Factor
			}
			r.step, r.tSrv = served, p.Now()
			p.After(r.service, r)
			return false
		case served:
			ost := fs.osts[r.osti]
			seeks, bytes := r.shape()
			if tr.Enabled() {
				tr.Span(ost.Name, trace.CatOST, "service", r.tSrv, p.Now(),
					trace.Arg{Key: "seeks", Val: float64(seeks)},
					trace.Arg{Key: "bytes", Val: bytes})
			}
			if fs.backbone != nil {
				fs.backbone.Release()
			}
			ost.Release()
			fs.stats.Requests++
			fs.stats.Seeks += seeks
			fs.stats.BytesRead += bytes
			fs.stats.WaitTime += r.waited
			fs.stats.ServiceTime += r.service
			if reg := tr.Counters(); reg != nil {
				reg.Inc("parfs.requests")
				reg.Add("parfs.seeks", float64(seeks))
				reg.Add("parfs.bytes", bytes)
				reg.Observe("parfs.wait", r.waited)
				reg.Observe("parfs.service", r.service)
			}
			if fs.readObs != nil {
				fs.readObs.OnRead(r.osti, bytes, r.start, r.waited+r.stalled, r.service, r.degraded, r.outage)
			}
			if r.hook != nil {
				r.hook.ReadDone(r.id, r.start, p.Now())
			}
			if r.rep++; r.gated {
				r.step = startRead // files[i] again, or its gate
				continue
			}
			fallthrough
		case passed:
			if r.i++; r.i == len(r.files) {
				return true
			}
			r.rep, r.step = 0, startRead
		}
	}
}

// Stats returns the accumulated accounting.
func (fs *FS) Stats() Stats { return fs.stats }

package sim

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"senkf/internal/trace"
)

// simGolden pins what the engine does with 50 generated process programs:
// the SHA-256 of the (virtual time, process, operation) log written at every
// resumption, of the detail trace and counter registry when the program has a
// tracer, and of Run's final time and error. The digests were recorded by
// running this file against the goroutine-and-channel engine of PR 18
// (internal/sim/sim.go at commit 9438e51), before the event loop was
// rebuilt; an engine change that keeps every wake-up in its place leaves them
// untouched. On a mismatch the test logs the table line it got.
var simGolden = []string{
	"c247672ac1352b27d485e456791befc66052b0e4d0d248d5bd6cbc05cd4263e9", // 1
	"9009e5f498c43a0d4edfce5b49852a39de922d2fec45ffc0f61b797fcfe1dcb3", // 2
	"758e542d8284af9e3a20f2269cebf661996ed0c67d5754e8789984cda8ccd5c5", // 3
	"55b55eca9156825827941157843a1ac9dd6e2529fce909ac076462593eaee301", // 4
	"8f5f3b1b9ce5d8bd16f1defa3be586924eb1655d31f5ba1b5a70aacbb7c4b845", // 5
	"d3e72e3c2c6fb40f0db05b5d42e20820237f8ceed9daac95009e5bfeb0c0bdc1", // 6
	"53385dca81620cff1ef7167df29b792632d8dd7f9482ef7ef43e9545e2062ac5", // 7
	"67238573b844c31346a8f43cf8612dd79fb176ca027d89cb54eac5f0dd810ba9", // 8
	"f61ce1a867ddc341f2eff59446dce5ff17fe9a73a63d4a7c5de2af254fbf5898", // 9
	"44c9b1328087ac6c1834ff3ea6d4c0924c8eb854329672facc94c2ce07723667", // 10
	"9111c8a043256f573ced2b6e34d2dbdcf033eedd78fdca625c3e9c57706e2fea", // 11
	"22ca1f6fafd82e1924ccafcfc75f8ec1d6f51fd6ceb6faa15008ec9947aa46f5", // 12
	"2c35a4a7f42c50825bacf5624ed2c61f50b2ff8626362db63b2146896ad4578c", // 13
	"5ed9b47aab28f1a94ff49ec81f28960faf02b887def9c6b4ed2dee4557a9ea9a", // 14
	"ee0e9dc23be8320ca9851883a6b0d48878cd84454945186e6808e80f7578eb5a", // 15
	"0fa13d517c990e171d39a93e556566d047726119bd6535e44e18ce11f6401c64", // 16
	"4098dc433a9ba4337af5fbf4f76eb6255839933dba943147808440c4da6da631", // 17
	"78938d238cfd95a077eda5e33bda239be0eafdc214a2391fc18f354baee6ddf7", // 18
	"e7ca6fc9e81d32b8427593a982cf91735275414e04c7e4aa3258d6d1bec816f7", // 19
	"fea18cb6ff50a8d5021dc18a587a2919f3beab3feabf69ac01b0118cd8a3bf5e", // 20
	"3ab202c16f5f0ff3f5556271a9c6e9f114eef9e46bd1eadf05aea8290c544d0b", // 21
	"52b12941118f60573ae1d0af765ffc028fbd55404fd93283c1705d42b366a8cb", // 22
	"ec142a0154b5ef655972560bbdf49e3473ddd9b2e763827343126140d47a332d", // 23
	"c2e51db8dd7b460ddc7640eb469e4d6c54088cf7ff257d9dbfaf778250347ae6", // 24
	"965a3bf28fa1e6938013823006ac80b8a2954d632910452ddecac4dec23cb11d", // 25
	"6194cc2535cdd87bde442cda156577c3162f527e14783d95476b38c859e2b225", // 26
	"4840fe4dfa78fae40a1c57fea1c7fe16cd4c43b6b37871ed3b4741d9deac8f93", // 27
	"468c7412afe7831129d56403d56b31a91fdd571807a1fe08615f1fe6bea7f9a2", // 28
	"f95b7a8f9a60549a2079d02afbbe815dd2304b524b9595a49998085af59cc4a8", // 29
	"0ac8ec32f854def36488658513638aec41f19404a3a0f60ac6cb2f5ad3f7a938", // 30
	"cb43b1b8473e78d2484e74b8e1c5cad9eef4363027b6e73f1287b50baecc927f", // 31
	"4ce9416e4b02b65a56a749eceb79d851072c01eba5a56a3346b4bc2d53ed0a3f", // 32
	"acc9ccf1dd5d85e9601b521dd57cabd61ea7f5c97dccab16158ee2c4ae8d246c", // 33
	"7b0daba853f1b49c45695f85da41d10e7386bc2a4ef58bb2f33fb5787af7a08c", // 34
	"abfcfc6789365759e166bae04373a8d1be59fffccbadd3bd7eac0e2c160ae413", // 35
	"aa34efb3a2a5cfc630eea6498902d2368645ecadd24e7ad3ada7c9f3ac9d6ff6", // 36
	"06d59a65e296554e03f3b8598bcca1f3c6f862baaca84297598dd35c9cf946a8", // 37
	"fd0a625a9cc972967bae83a61edf9f1e8d9e5166318d60f83a57cc8ece178ba9", // 38
	"9de2e526c3442bb4dbc802e1a451cbe4bb71b2ea821bfb51feacba57cf5162ab", // 39
	"5c7517822c039ed5dcef3c1aed6541f4b8b54f7e76e44529063b29e06a763dd0", // 40
	"c72d7b64d15559e19cd48d5854d99d2fe1f1c030263e167357ba544041868da1", // 41
	"cf4c994b5b5fcbcdf5bc115b351022eec7a30fd39b4f35d09eb94213742b0a22", // 42
	"475d07d46b4ff7d0433bdde1209c7b0934394e33bf214dd30169dc03e5ba3116", // 43
	"61fcd091ae86db76a1c5fb64c78a8209a9a84358fdf7223bb39aac3105ee4711", // 44
	"280b542d1d6bd5f139e5de863b40aeea11c42fdd6c5aa10ba0eefffa9a69656b", // 45
	"42f84788d7150644df507b297e7f5353d849e6d4992ff433f56cd22d7db69440", // 46
	"8a461eaf42c6986b05cc141ca9a523bb0f167762674e25638431e60e7196b64b", // 47
	"fc0e773fdf37a3f7acd4a6a6639259ee54ad6fc81aad8b54bd562ad24f8275ef", // 48
	"7e217dee5f74570fcf6afb99468773a806eac2520279a7a35ffffc943d59b2e2", // 49
	"6138177591dcdccfd5d67c4f1f48d7d4b131b3e7b27c96465c42b03fab48772b", // 50
}

// Operations of a generated process.
const (
	gSleep   = iota // Sleep(d)
	gUse            // Acquire a; Sleep d; Release a
	gUse2           // Acquire a, then b > a; Sleep d; Release b, a
	gSend           // Send on mailbox a
	gRecv           // Recv on mailbox a
	gSpawn          // Go child a from inside the running process
	gBarrier        // Wait on the cyclic barrier
	gLeave          // Leave the cyclic barrier
	gVoid           // Recv on a mailbox nobody sends to (deadlocks)
	gJam            // Acquire the capacity-1 resource and never release it
	gHalf           // Wait on a two-party barrier nobody else joins (deadlocks)
)

type gop struct {
	kind, a, b int
	d          float64
}

type gproc struct {
	name string
	ops  []gop
}

// gprog is one generated program: the machine (resources, mailboxes, one
// barrier) and the processes on it. Every choice is made here, before the
// simulation runs, so the program does not depend on how it is scheduled.
type gprog struct {
	caps     []int
	nmb      int
	parties  int
	roots    []gproc // in spawn order
	children []gproc // started by gSpawn
	slow     map[string]float64
	traced   bool
}

// genProgram builds the program of a seed. It cannot deadlock unless asked
// to (seed%8 == 7): workers and barrier parties never receive, resources are
// taken in index order, a receiver of level ℓ receives only from mailboxes
// ≤ ℓ and sends only to mailboxes > ℓ, and no mailbox has more receives than
// sends — so by induction on the level every receive is served.
func genProgram(seed int64) *gprog {
	rng := rand.New(rand.NewSource(seed))
	g := &gprog{nmb: 1 + rng.Intn(3), traced: seed%2 == 0}
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		g.caps = append(g.caps, 1+rng.Intn(4))
	}
	supply := make([]int, g.nmb)
	dur := func() float64 {
		// Mostly a coarse grid, so that wake-ups collide on a timestamp.
		grid := []float64{0, 0, 0.25, 0.5, 0.5, 1, 1, 1.5, 2}
		if k := rng.Intn(len(grid) + 1); k < len(grid) {
			return grid[k]
		}
		return rng.Float64()
	}
	use := func() gop {
		a := rng.Intn(len(g.caps))
		if a+1 < len(g.caps) && rng.Intn(3) == 0 {
			return gop{kind: gUse2, a: a, b: a + 1 + rng.Intn(len(g.caps)-a-1), d: dur()}
		}
		return gop{kind: gUse, a: a, d: dur()}
	}
	send := func(lo int) gop {
		m := lo + rng.Intn(g.nmb-lo)
		supply[m]++
		return gop{kind: gSend, a: m}
	}
	var worker func(name string, n, depth int) gproc
	worker = func(name string, n, depth int) gproc {
		p := gproc{name: name}
		for i := 0; i < n; i++ {
			switch k := rng.Intn(10); {
			case k < 3:
				p.ops = append(p.ops, gop{kind: gSleep, d: dur()})
			case k < 7:
				p.ops = append(p.ops, use())
			case k < 9:
				p.ops = append(p.ops, send(0))
			case depth < 2:
				c := worker(fmt.Sprintf("%s.c%d", name, i), 1+rng.Intn(5), depth+1)
				g.children = append(g.children, c)
				p.ops = append(p.ops, gop{kind: gSpawn, a: len(g.children) - 1})
			default:
				p.ops = append(p.ops, gop{kind: gSleep, d: 0})
			}
		}
		return p
	}
	for i, n := 0, 3+rng.Intn(10); i < n; i++ {
		g.roots = append(g.roots, worker(fmt.Sprintf("w%d", i), 2+rng.Intn(8), 0))
	}

	// Barrier parties: rounds of work and Wait; one party leaves part-way.
	g.parties = 2 + rng.Intn(4)
	rounds := 2 + rng.Intn(4)
	leaver, leaveAfter := rng.Intn(g.parties), rng.Intn(rounds)
	for i := 0; i < g.parties; i++ {
		p := gproc{name: fmt.Sprintf("b%d", i)}
		for r := 0; r < rounds; r++ {
			if i == leaver && r == leaveAfter {
				p.ops = append(p.ops, gop{kind: gLeave})
				break
			}
			p.ops = append(p.ops, worker("", 1+rng.Intn(2), 2).ops...)
			p.ops = append(p.ops, gop{kind: gBarrier})
		}
		p.ops = append(p.ops, gop{kind: gSleep, d: dur()})
		g.roots = append(g.roots, p)
	}

	// Receivers, generated by ascending level so that supply is known.
	levels := make([]int, 1+rng.Intn(4))
	for i := range levels {
		levels[i] = rng.Intn(g.nmb)
	}
	sort.Ints(levels)
	for i, lv := range levels {
		p := gproc{name: fmt.Sprintf("r%d", i)}
		for j, n := 0, 2+rng.Intn(6); j < n; j++ {
			m := rng.Intn(lv + 1)
			switch k := rng.Intn(6); {
			case k < 3 && supply[m] > 0:
				supply[m]--
				p.ops = append(p.ops, gop{kind: gRecv, a: m})
			case k == 3 && lv+1 < g.nmb:
				p.ops = append(p.ops, send(lv+1))
			case k == 4:
				p.ops = append(p.ops, use())
			default:
				p.ops = append(p.ops, gop{kind: gSleep, d: dur()})
			}
		}
		g.roots = append(g.roots, p)
	}

	if seed%8 == 7 {
		g.roots = append(g.roots,
			gproc{name: "stuck", ops: []gop{{kind: gSleep, d: dur()}, {kind: gVoid}}},
			gproc{name: "hog", ops: []gop{{kind: gJam}}},
			gproc{name: "jammed", ops: []gop{{kind: gSleep, d: dur()}, {kind: gJam}}},
			gproc{name: "lonely", ops: []gop{{kind: gHalf}}})
	}
	rng.Shuffle(len(g.roots), func(i, j int) { g.roots[i], g.roots[j] = g.roots[j], g.roots[i] })

	if seed%3 == 0 {
		g.slow = map[string]float64{}
		for _, p := range g.roots {
			if rng.Intn(3) == 0 {
				g.slow[p.name] = []float64{0.5, 1.5, 2, 3}[rng.Intn(4)]
			}
		}
	}
	return g
}

// run executes the program on a fresh Env and returns the digest of
// everything observable about the run.
func (g *gprog) run(t *testing.T) string {
	env := NewEnv()
	var log bytes.Buffer
	var buf *trace.Buffer
	var reg *trace.Registry
	if g.traced {
		buf, reg = trace.NewBuffer(), trace.NewRegistry()
		tr := trace.New(env.Now, buf)
		tr.SetDetail(true)
		tr.SetCounters(reg)
		env.SetTracer(tr)
	}
	if g.slow != nil {
		env.SetSlowdown(func(name string) float64 { return g.slow[name] })
	}
	res := make([]*Resource, len(g.caps))
	held := make([]int, len(g.caps))
	for i, c := range g.caps {
		res[i] = NewResource(env, fmt.Sprintf("res%d", i), c)
	}
	boxes := make([]*Mailbox, g.nmb)
	sent := make([]int, g.nmb)
	got := make([]map[int]bool, g.nmb)
	for i := range boxes {
		boxes[i] = NewMailbox(env, fmt.Sprintf("box%d", i))
		got[i] = map[int]bool{}
	}
	bar := NewBarrier(env, "bar", g.parties)
	void, jam, half := NewMailbox(env, "void"), NewResource(env, "jam", 1), NewBarrier(env, "half", 2)

	// Wake-ups from Sleep must come in the order the sleeps were scheduled:
	// by time, and among equal times by ticket.
	ticket, lastAt, lastTicket := 0, math.Inf(-1), 0

	var body func(gp *gproc) func(p *Proc)
	body = func(gp *gproc) func(p *Proc) {
		return func(p *Proc) {
			note := func(format string, args ...any) {
				fmt.Fprintf(&log, "%016x %s ", math.Float64bits(p.Now()), p.Name)
				fmt.Fprintf(&log, format, args...)
				log.WriteByte('\n')
				if p.Now() != env.Now() {
					t.Errorf("%s: Proc.Now %g != Env.Now %g", p.Name, p.Now(), env.Now())
				}
			}
			sleep := func(d float64) {
				ticket++
				mine := ticket
				p.Sleep(d)
				if p.Now() < lastAt || (p.Now() == lastAt && mine < lastTicket) {
					t.Errorf("%s: sleep %d woke at %g after sleep %d at %g", p.Name, mine, p.Now(), lastTicket, lastAt)
				}
				lastAt, lastTicket = p.Now(), mine
			}
			acquire := func(i int) {
				res[i].Acquire(p)
				held[i]++
				if held[i] > g.caps[i] || res[i].inUse > g.caps[i] {
					t.Errorf("%s: res%d holds %d (InUse %d) over capacity %d", p.Name, i, held[i], res[i].inUse, g.caps[i])
				}
			}
			release := func(i int) {
				held[i]--
				res[i].Release()
			}
			lastRecv := make([]int, g.nmb)
			note("start")
			for _, o := range gp.ops {
				switch o.kind {
				case gSleep:
					sleep(o.d)
					note("slept %g", o.d)
				case gUse:
					acquire(o.a)
					note("acquired %d", o.a)
					sleep(o.d)
					release(o.a)
					note("released %d", o.a)
				case gUse2:
					acquire(o.a)
					note("acquired %d", o.a)
					acquire(o.b)
					note("acquired %d", o.b)
					sleep(o.d)
					release(o.b)
					release(o.a)
					note("released %d %d", o.b, o.a)
				case gSend:
					sent[o.a]++
					boxes[o.a].Send(sent[o.a])
					note("sent %d #%d", o.a, sent[o.a])
				case gRecv:
					v := boxes[o.a].Recv(p).(int)
					if got[o.a][v] || v <= lastRecv[o.a] {
						t.Errorf("%s: box%d delivered #%d twice or out of order (last #%d)", p.Name, o.a, v, lastRecv[o.a])
					}
					got[o.a][v], lastRecv[o.a] = true, v
					note("received %d #%d", o.a, v)
				case gSpawn:
					c := &g.children[o.a]
					env.Go(c.name, body(c))
					note("spawned %s", c.name)
				case gBarrier:
					bar.Wait(p)
					note("passed barrier")
				case gLeave:
					bar.Leave()
					note("left barrier of %d", bar.n)
				case gVoid:
					void.Recv(p)
				case gJam:
					jam.Acquire(p)
				case gHalf:
					half.Wait(p)
				}
			}
			note("end")
		}
	}
	for i := range g.roots {
		env.Go(g.roots[i].name, body(&g.roots[i]))
	}
	end, err := env.Run()

	h := sha256.New()
	h.Write(log.Bytes())
	fmt.Fprintf(h, "end %016x\n", math.Float64bits(end))
	var d *DeadlockError
	switch {
	case errors.As(err, &d):
		fmt.Fprintf(h, "%v\n%v\n%v\n", err, d.Blocked, d.Waiting)
		for _, b := range d.Blocked {
			if d.BlockedOn()[b.Name] != b.WaitingOn {
				t.Errorf("BlockedOn[%s] = %q, Blocked says %q", b.Name, d.BlockedOn()[b.Name], b.WaitingOn)
			}
		}
	case err != nil:
		t.Errorf("Run: %v", err)
	}
	if g.traced {
		for _, ev := range buf.Events() {
			fmt.Fprintf(h, "%s %s %s %c %016x %016x %v\n", ev.Track, ev.Cat, ev.Name, ev.Ph,
				math.Float64bits(ev.Ts), math.Float64bits(ev.Dur), ev.Args)
		}
		writeRegistryRows(h, reg.Snapshot())
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// writeRegistryRows writes s in the kind,name,field,value rows the digests
// were recorded with (the registry's CSV rendering of the time).
func writeRegistryRows(w io.Writer, s trace.Snapshot) {
	val := func(v float64) string {
		if v == math.Trunc(v) && math.Abs(v) < 1e15 {
			return fmt.Sprintf("%d", int64(v))
		}
		return fmt.Sprintf("%.6g", v)
	}
	fmt.Fprintln(w, "kind,name,field,value")
	for _, c := range s.Counters {
		fmt.Fprintf(w, "counter,%s,value,%s\n", c.Name, val(c.Value))
	}
	for _, g := range s.Gauges {
		fmt.Fprintf(w, "gauge,%s,value,%s\ngauge,%s,high-water,%s\n", g.Name, val(g.Value), g.Name, val(g.HighWater))
	}
	for _, h := range s.Histograms {
		fmt.Fprintf(w, "histogram,%s,count,%d\nhistogram,%s,sum,%s\n", h.Name, h.Count, h.Name, val(h.Sum))
		for i, c := range h.Counts {
			bound := "le_inf"
			if i < len(h.Buckets) {
				bound = "le_" + val(h.Buckets[i])
			}
			fmt.Fprintf(w, "histogram,%s,%s,%d\n", h.Name, bound, c)
		}
	}
}

// TestGoldenPrograms is the refactoring net under the engine: every
// generated program reproduces its pinned digest on one OS thread, on two
// and on eight, run after run.
func TestGoldenPrograms(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const programs = 50
seeds:
	for seed := 1; seed <= programs; seed++ {
		g := genProgram(int64(seed))
		var want string
		if seed <= len(simGolden) {
			want = simGolden[seed-1]
		}
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			for rep := 0; rep < 2; rep++ {
				if got := g.run(t); got != want {
					t.Errorf("seed %d (GOMAXPROCS=%d, run %d): digest\n got %s\nwant %s", seed, procs, rep, got, want)
					t.Logf("\t%q, // %d", got, seed)
					continue seeds
				}
			}
		}
	}
}

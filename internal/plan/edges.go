// Wire-edge accounting: the expected per-edge communication matrix derived
// from a compiled plan, and the observer interface through which both
// substrates report the messages they actually carry.
//
// An edge is one directed (src, dst, stage, level) point-to-point stream of
// stage-data messages. The compiler already states everything needed to
// predict it — CommPlan lists the destinations, the destination's compute
// stage states the exact payload box, and Tag fixes the message identity —
// so ExpectedEdges is pure arithmetic over Compiled. The real engine
// (internal/core on mpi) and the simulated machine (internal/schedule)
// each report their actual messages through MsgObserver, and the three
// matrices — real, simulated, expected — must be bit-identical for every
// algorithm, including multilevel (pinned by the parity tests).
//
// Collective traffic (negative tags) and the result gather (tags at or
// above the engine's private result-tag floor, far outside the plan tag
// space) are not edges of the matrix; observers bucket them separately so
// the invariant "matrix bytes + other bytes == transport totals" is exact.

package plan

import (
	"fmt"
	"sort"
)

// On-wire encoding of one stage-data message, shared by the real engine
// and this package's byte accounting: an 8-byte word per element, and a
// 5-word header [member, X0, X1, Y0, Y1] ahead of the payload box. If the
// engine's header ever changes shape, StageMsgBytes must change with it —
// the edge parity tests catch a drift immediately.
const (
	wireWordBytes     = 8
	stageMsgMetaWords = 5
)

// EdgeKey identifies one directed wire edge: src and dst are world ranks,
// stage is the logical pipeline stage and level the vertical level of the
// payload.
type EdgeKey struct {
	Src   int `json:"src"`
	Dst   int `json:"dst"`
	Stage int `json:"stage"`
	Level int `json:"level"`
}

func (k EdgeKey) String() string {
	return fmt.Sprintf("%d->%d/s%d/l%d", k.Src, k.Dst, k.Stage, k.Level)
}

// EdgeStats is the accumulated traffic of one edge.
type EdgeStats struct {
	Msgs  int64 `json:"msgs"`
	Bytes int64 `json:"bytes"`
}

// EdgeMatrix maps every observed (or expected) edge to its traffic.
type EdgeMatrix map[EdgeKey]EdgeStats

// Record adds one message of the given size to edge k.
func (m EdgeMatrix) Record(k EdgeKey, bytes int64) {
	es := m[k]
	es.Msgs++
	es.Bytes += bytes
	m[k] = es
}

// Totals sums the matrix.
func (m EdgeMatrix) Totals() EdgeStats {
	var t EdgeStats
	for _, es := range m {
		t.Msgs += es.Msgs
		t.Bytes += es.Bytes
	}
	return t
}

// Keys returns every edge in deterministic (src, dst, stage, level) order.
func (m EdgeMatrix) Keys() []EdgeKey {
	keys := make([]EdgeKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		if a.Dst != b.Dst {
			return a.Dst < b.Dst
		}
		if a.Stage != b.Stage {
			return a.Stage < b.Stage
		}
		return a.Level < b.Level
	})
	return keys
}

// Clone returns an independent copy.
func (m EdgeMatrix) Clone() EdgeMatrix {
	out := make(EdgeMatrix, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// Diff returns the first edge Compare finds between other and m, taken as
// the expected matrix — unexpected, then over, missing and short — or nil
// when the two are identical.
func (m EdgeMatrix) Diff(other EdgeMatrix) error {
	unexpected, over, missing, short := other.Compare(m)
	for i, ks := range [][]EdgeKey{unexpected, over, missing, short} {
		if len(ks) > 0 {
			k := ks[0]
			return fmt.Errorf("edge %s %s: %d msgs/%d bytes vs %d msgs/%d bytes",
				k, [...]string{"unexpected", "over", "missing", "short"}[i],
				m[k].Msgs, m[k].Bytes, other[k].Msgs, other[k].Bytes)
		}
	}
	return nil
}

// Compare classifies the observed matrix m against the expected one, each
// class in key order: unexpected edges the plan does not have, over edges
// carrying more messages or bytes than planned, missing planned edges m
// does not have, and short edges carrying fewer. An edge can be both over
// and short. All four are empty exactly when the matrices are equal.
func (m EdgeMatrix) Compare(expected EdgeMatrix) (unexpected, over, missing, short []EdgeKey) {
	for _, k := range m.Keys() {
		if exp, ok := expected[k]; !ok {
			unexpected = append(unexpected, k)
		} else if m[k].Msgs > exp.Msgs || m[k].Bytes > exp.Bytes {
			over = append(over, k)
		}
	}
	for _, k := range expected.Keys() {
		if got, ok := m[k]; !ok {
			missing = append(missing, k)
		} else if got.Msgs < expected[k].Msgs || got.Bytes < expected[k].Bytes {
			short = append(short, k)
		}
	}
	return unexpected, over, missing, short
}

// StageMsgBytes returns the on-wire byte size of one stage-data message to
// compute rank dst at the given stage: the 5-word header plus the
// destination's exact (clamped) stage box, 8 bytes per word — precisely
// what the real transport charges for the engine's send.
func StageMsgBytes(c *Compiled, dst, stage int) int64 {
	return wireWordBytes * int64(stageMsgMetaWords+c.Compute[dst].Stages[stage].Box.Points())
}

// ExpectedEdges derives the expected edge matrix of a compiled plan: for
// every I/O rank, every stage sends each member's block of each level to
// each destination, sized by the destination's stage box. Plans without
// dedicated I/O ranks (block reading) have an empty matrix.
func ExpectedEdges(c *Compiled) EdgeMatrix {
	m := EdgeMatrix{}
	levels := c.Spec.LevelCount()
	for q := range c.IO {
		r := &c.IO[q]
		for _, st := range r.Stages {
			for _, dst := range st.Comm.Dsts {
				b := StageMsgBytes(c, dst, st.Stage)
				for lvl := 0; lvl < levels; lvl++ {
					k := EdgeKey{Src: r.Rank, Dst: dst, Stage: st.Stage, Level: lvl}
					es := m[k]
					es.Msgs += int64(len(st.Members))
					es.Bytes += int64(len(st.Members)) * b
					m[k] = es
				}
			}
		}
	}
	return m
}

// InvertTag recovers the (stage, member, level) triple of a stage-data
// message tag under this spec, inverting Tag. ok is false for tags outside
// the plan tag space [0, L·N·levels) — collectives (negative) and the
// engine's result gather (far above), which belong to the observer's
// "other" bucket, not the edge matrix.
func (s Spec) InvertTag(tag int) (stage, member, level int, ok bool) {
	n, levels := s.N, s.LevelCount()
	if tag < 0 || tag >= s.L*n*levels {
		return 0, 0, 0, false
	}
	return tag / (levels * n), (tag / levels) % n, tag % levels, true
}

// MsgObserver observes every point-to-point message a run carries.
// BeginMessages is called once with the compiled plan before ranks start
// (so the observer can size tag inversion and the expected matrix);
// OnMessage is called once per delivered message, concurrently from
// receiving ranks — implementations must be safe for concurrent use.
// The real transport (internal/mpi) invokes OnMessage through its own
// structurally identical observer interface, so one implementation serves
// both substrates without a layering cycle.
type MsgObserver interface {
	BeginMessages(c *Compiled)
	// OnMessage reports one delivered message: world ranks src and dst, the
	// plan-space (or collective/result) tag, the on-wire byte size, the
	// enqueue and delivery timestamps on the run's trace clock (seconds),
	// and the receiver's remaining queue depth at match time.
	OnMessage(src, dst, tag int, bytes int64, sentAt, deliveredAt float64, depth int)
}

package plan

import (
	"fmt"
	"io"

	"senkf/internal/grid"
	"senkf/internal/metrics"
)

// ReadTemplate describes one read that a rank performs per member: the
// exact (clamped) byte range as a box, and the model-level accounting the
// cost equations and the simulated substrate use. The two views coexist on
// purpose — the real substrate reads Box (what ends up in memory), while
// Eq. 2/5 and the discrete-event machine count the nominal, unclamped
// geometry of the paper's formulas.
type ReadTemplate struct {
	// Box is the exact region read, clamped to the mesh. Bars and full
	// files span the full mesh width; blocks are column-strided.
	Box grid.Box
	// Contiguous reports whether the region is contiguous on disk (full
	// latitude rows — bars and whole files): one addressing operation per
	// read. Strided blocks pay one addressing operation per row.
	Contiguous bool
	// AddrOps is the nominal addressing-operation count of one member
	// read: 1 for bars and full files (Eq. 5), the nominal expansion row
	// count for blocks (Eq. 2). Nominal means unclamped — boundary ranks
	// count the same as interior ranks, as in the paper's cost model.
	AddrOps int
	// NominalPoints is the unclamped point count of one member read, *per
	// level*: the 2-D geometry of Eqs. 2 and 5. Multiply by Levels for the
	// full fetched volume.
	NominalPoints int
	// Levels is the level count fetched by one read. The member files
	// interleave levels per grid point, so a contiguous bar read fetches
	// all levels of its rows at the same AddrOps cost (the co-design that
	// makes 3-D states ride the Eq. 5 accounting unchanged); block reads
	// pay the same per-row addressing but each row is Levels× heavier.
	Levels int
}

// PointsAllLevels returns the nominal point count of one member read
// across every fetched level — the volume the simulated file system and
// the cost model price.
func (r ReadTemplate) PointsAllLevels() int { return r.NominalPoints * r.Levels }

// CommPlan describes the sends an I/O rank performs after the reads of one
// stage: the aggregated stage blocks go to Dsts (compute world ranks, in
// send order). The exact per-destination payload box is the destination's
// compute-stage box (Compiled.Compute[dst].Stages[stage].Box); PerDstPoints
// is its nominal (unclamped) size for the cost model.
type CommPlan struct {
	Dsts         []int // destination compute ranks, in send order
	PerDstPoints int   // nominal points per member per destination
}

// IOStage is one stage of an I/O rank's schedule: read the stage's region
// from each member in Members (in order), then send every destination its
// block of every member. For S-EnKF there are L stages over the rank's
// whole member set; for L-EnKF's single reader there are N single-member
// rounds (all with Stage 0 — the pipeline has one logical stage).
type IOStage struct {
	Stage   int   // logical pipeline stage (message-tag space)
	Members []int // members read this stage, in read order
	Read    ReadTemplate
	Comm    CommPlan
}

// IORank is the compiled schedule of one dedicated I/O rank.
type IORank struct {
	Rank    int    // world rank
	Name    string // stable proc name and trace track ("io/g<g>/r<r>")
	Group   int    // concurrent group g
	Row     int    // bar row j (reader index within the group)
	Members []int  // the rank's member files, ascending
	Stages  []IOStage
}

// AddrOps returns the rank's total nominal addressing operations across
// all stages — the per-reader quantity of Eq. 5: (N/n_cg)·L for bar
// reading, N for the single reader.
func (r IORank) AddrOps() int {
	var total int
	for _, st := range r.Stages {
		total += len(st.Members) * st.Read.AddrOps
	}
	return total
}

// ComputeStage is one stage of a compute rank's schedule. Either the stage
// data arrives as Expect messages from I/O ranks (bar/single reading), or
// the rank reads it itself from SelfMembers (block reading) — never both.
type ComputeStage struct {
	Stage int
	// Expect is the number of per-member blocks to receive from I/O ranks
	// before the stage is ready (0 when the rank reads for itself).
	Expect int
	// SelfMembers lists the members the rank block-reads itself (P-EnKF);
	// empty when data arrives by message.
	SelfMembers []int
	// Read is the self-read template (meaningful only with SelfMembers).
	Read ReadTemplate
	// Box is the region holding the stage's data: the (layer) expansion.
	// It is also the exact payload box I/O ranks cut for this rank.
	Box grid.Box
	// Analyze is the region analysed this stage (the layer or sub-domain).
	Analyze grid.Box
}

// ComputeRank is the compiled schedule of one compute rank.
type ComputeRank struct {
	Rank   int    // world rank
	Name   string // stable proc name and trace track ("comp/x<i>y<j>")
	I, J   int    // sub-domain coordinates
	Sub    grid.Box
	Stages []ComputeStage
}

// AddrOps returns the rank's total nominal addressing operations — the
// per-processor quantity of Eq. 2: N·(n_y/n_sdy + 2η) for block reading,
// 0 when data arrives by message.
func (r ComputeRank) AddrOps() int {
	var total int
	for _, st := range r.Stages {
		total += len(st.SelfMembers) * st.Read.AddrOps
	}
	return total
}

// Compiled is the explicit per-rank schedule of one algorithm instance.
// World layout: compute ranks occupy [0, len(Compute)), I/O ranks follow
// at [len(Compute), WorldSize()), ordered group-major (rank index
// len(Compute) + g·n_sdy + j for group g, row j).
type Compiled struct {
	Spec    Spec
	IO      []IORank
	Compute []ComputeRank
}

// Compile turns a validated spec into its per-rank schedule.
func Compile(s Spec) (*Compiled, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	c := &Compiled{Spec: s}
	if err := s.Reader.compile(s, c); err != nil {
		return nil, err
	}
	return c, nil
}

// NumCompute returns C2, the compute rank count.
func (c *Compiled) NumCompute() int { return len(c.Compute) }

// NumIO returns C1, the dedicated I/O rank count.
func (c *Compiled) NumIO() int { return len(c.IO) }

// WorldSize returns the total rank count C1 + C2.
func (c *Compiled) WorldSize() int { return len(c.Compute) + len(c.IO) }

// Staged reports whether spans and release instants carry stage tags.
func (c *Compiled) Staged() bool { return c.Spec.Staged() }

// IOAt returns the I/O rank plan of group g, row j (nil when out of
// range) — the lookup failover logic uses to serve a dead reader's row.
func (c *Compiled) IOAt(g, j int) *IORank {
	q := g*c.Spec.Dec.NSdy + j
	if q < 0 || q >= len(c.IO) {
		return nil
	}
	return &c.IO[q]
}

// TotalAddrOps sums the nominal addressing operations of every rank — the
// whole-run quantities the paper compares: N·n_sdy·L for bar reading
// (Eq. 5 summed over readers), C2·N·(n_y/n_sdy+2η) for block reading
// (Eq. 2 summed over processors), N for the single reader.
func (c *Compiled) TotalAddrOps() int {
	var total int
	for _, r := range c.IO {
		total += r.AddrOps()
	}
	for _, r := range c.Compute {
		total += r.AddrOps()
	}
	return total
}

// computeRanks builds the compute side shared by every strategy: one rank
// per sub-domain in RankOf order, with the given per-rank stage builder.
func computeRanks(s Spec, stagesFor func(i, j int) ([]ComputeStage, error)) ([]ComputeRank, error) {
	out := make([]ComputeRank, 0, s.Dec.SubDomains())
	for r := 0; r < s.Dec.SubDomains(); r++ {
		i, j := s.Dec.CoordsOf(r)
		stages, err := stagesFor(i, j)
		if err != nil {
			return nil, err
		}
		out = append(out, ComputeRank{
			Rank:   r,
			Name:   metrics.ComputeName(i, j),
			I:      i,
			J:      j,
			Sub:    s.Dec.SubDomain(i, j),
			Stages: stages,
		})
	}
	return out, nil
}

// nominalExpansion returns the paper's unclamped expansion point count
// n̄_sd = (n_x/n_sdx + 2ξ)(n_y/n_sdy + 2η).
func nominalExpansion(d grid.Decomposition) int {
	w, h := d.ExpansionUnclamped()
	return w * h
}

// compile implements ReaderStrategy for BarReader: the S-EnKF schedule.
func (b BarReader) compile(s Spec, c *Compiled) error {
	d := s.Dec
	// Nominal small-bar geometry of §4.3: n_y/(n_sdy·L)+2η full-width
	// rows per bar; blocks of n_x/n_sdx+2ξ columns per destination.
	barRows := d.SubHeight()/s.L + 2*d.R.Eta
	blockCols := d.SubWidth() + 2*d.R.Xi
	layerRows := d.SubHeight()/s.L + 2*d.R.Eta

	var err error
	c.Compute, err = computeRanks(s, func(i, j int) ([]ComputeStage, error) {
		layers, err := d.Layers(i, j, s.L)
		if err != nil {
			return nil, err
		}
		stages := make([]ComputeStage, s.L)
		for l := 0; l < s.L; l++ {
			exp := layers[l].Expand(d.Mesh, d.R.Xi, d.R.Eta)
			stages[l] = ComputeStage{Stage: l, Expect: s.N, Box: exp, Analyze: layers[l]}
		}
		return stages, nil
	})
	if err != nil {
		return err
	}

	// Destination ranks of bar row j, shared across the row's readers and
	// stages: the n_sdx compute ranks of that row, in column order.
	rowDsts := make([][]int, d.NSdy)
	for j := range rowDsts {
		dsts := make([]int, d.NSdx)
		for i := range dsts {
			dsts[i] = d.RankOf(i, j)
		}
		rowDsts[j] = dsts
	}

	c2 := d.SubDomains()
	for g := 0; g < b.NCg; g++ {
		// The group's files: k ≡ g (mod n_cg), ascending.
		members := make([]int, 0, s.N/b.NCg)
		for k := g; k < s.N; k += b.NCg {
			members = append(members, k)
		}
		for j := 0; j < d.NSdy; j++ {
			stages := make([]IOStage, s.L)
			for l := 0; l < s.L; l++ {
				lb, err := d.LayerBar(j, l, s.L)
				if err != nil {
					return err
				}
				stages[l] = IOStage{
					Stage:   l,
					Members: members,
					Read: ReadTemplate{
						Box:           lb,
						Contiguous:    true,
						AddrOps:       1, // Eq. 5: one addressing op per small bar, all levels
						NominalPoints: barRows * d.Mesh.NX,
						Levels:        s.LevelCount(),
					},
					Comm: CommPlan{
						Dsts:         rowDsts[j],
						PerDstPoints: layerRows * blockCols,
					},
				}
			}
			c.IO = append(c.IO, IORank{
				Rank:    c2 + g*d.NSdy + j,
				Name:    metrics.IOName(g, j),
				Group:   g,
				Row:     j,
				Members: members,
				Stages:  stages,
			})
		}
	}
	return nil
}

// compile implements ReaderStrategy for BlockReader: the P-EnKF schedule.
func (BlockReader) compile(s Spec, c *Compiled) error {
	d := s.Dec
	members := make([]int, s.N)
	for k := range members {
		members[k] = k
	}
	nomRows := d.SubHeight() + 2*d.R.Eta
	var err error
	c.Compute, err = computeRanks(s, func(i, j int) ([]ComputeStage, error) {
		exp := d.Expansion(i, j)
		return []ComputeStage{{
			Stage:       0,
			SelfMembers: members,
			Read: ReadTemplate{
				Box:           exp,
				Contiguous:    false,
				AddrOps:       nomRows, // Eq. 2: one addressing op per nominal expansion row
				NominalPoints: nominalExpansion(d),
				Levels:        s.LevelCount(),
			},
			Box:     exp,
			Analyze: d.SubDomain(i, j),
		}}, nil
	})
	return err
}

// compile implements ReaderStrategy for SingleReader: the L-EnKF schedule.
func (SingleReader) compile(s Spec, c *Compiled) error {
	d := s.Dec
	var err error
	c.Compute, err = computeRanks(s, func(i, j int) ([]ComputeStage, error) {
		exp := d.Expansion(i, j)
		return []ComputeStage{{Stage: 0, Expect: s.N, Box: exp, Analyze: d.SubDomain(i, j)}}, nil
	})
	if err != nil {
		return err
	}
	np := d.SubDomains()
	dsts := make([]int, np)
	members := make([]int, s.N)
	for r := range dsts {
		dsts[r] = r
	}
	for k := range members {
		members[k] = k
	}
	full := grid.Box{X0: 0, X1: d.Mesh.NX, Y0: 0, Y1: d.Mesh.NY}
	read := ReadTemplate{
		Box:           full,
		Contiguous:    true,
		AddrOps:       1, // one addressing op per whole-file read
		NominalPoints: d.Mesh.NX * d.Mesh.NY,
		Levels:        s.LevelCount(), // always 1: SingleReader rejects multilevel
	}
	comm := CommPlan{Dsts: dsts, PerDstPoints: nominalExpansion(d)}
	// One round per member: read it in full, scatter every rank's
	// expansion block. All rounds belong to the single logical stage 0.
	stages := make([]IOStage, s.N)
	for k := 0; k < s.N; k++ {
		stages[k] = IOStage{Stage: 0, Members: members[k : k+1], Read: read, Comm: comm}
	}
	c.IO = []IORank{{
		Rank:    np,
		Name:    metrics.IOName(0, 0),
		Group:   0,
		Row:     0,
		Members: members,
		Stages:  stages,
	}}
	return nil
}

// String summarises the compiled plan for diagnostics. The level clause
// appears only on multilevel plans, so single-level plan hashes (runlog's
// PlanHash is a digest of Dump, whose header this is) are unchanged by the
// level dimension's existence.
func (c *Compiled) String() string {
	s := fmt.Sprintf("%s: %d compute + %d io ranks, %d stages, %d addressing ops",
		c.Spec.Algorithm, len(c.Compute), len(c.IO), c.Spec.L, c.TotalAddrOps())
	if lv := c.Spec.LevelCount(); lv > 1 {
		s += fmt.Sprintf(", %d levels", lv)
	}
	return s
}

// Dump writes the full per-rank schedule in a readable form: every I/O
// rank's stages (members read, region, addressing-op cost, destinations)
// and every compute rank's stages (expected messages or self-reads, and
// the region analysed). This is the plan both substrates interpret,
// printed exactly as compiled.
func (c *Compiled) Dump(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%s (reader: %s)\n", c, c.Spec.Reader.Name()); err != nil {
		return err
	}
	for q := range c.IO {
		r := &c.IO[q]
		fmt.Fprintf(w, "  %s (rank %d, group %d, row %d): members %v, %d addressing ops\n",
			r.Name, r.Rank, r.Group, r.Row, r.Members, r.AddrOps())
		for _, st := range r.Stages {
			fmt.Fprintf(w, "    stage %d: read %s (%d ops x %d members) -> send %d points/member to ranks %v\n",
				st.Stage, st.Read.Box, st.Read.AddrOps, len(st.Members),
				st.Comm.PerDstPoints, st.Comm.Dsts)
		}
	}
	for q := range c.Compute {
		r := &c.Compute[q]
		fmt.Fprintf(w, "  %s (rank %d, sub-domain %s): %d addressing ops\n",
			r.Name, r.Rank, r.Sub, r.AddrOps())
		for _, st := range r.Stages {
			switch {
			case len(st.SelfMembers) > 0:
				fmt.Fprintf(w, "    stage %d: self-read %s (%d ops x %d members), analyze %s\n",
					st.Stage, st.Read.Box, st.Read.AddrOps, len(st.SelfMembers), st.Analyze)
			default:
				fmt.Fprintf(w, "    stage %d: expect %d blocks into %s, analyze %s\n",
					st.Stage, st.Expect, st.Box, st.Analyze)
			}
		}
	}
	return nil
}

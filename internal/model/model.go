// Package model provides the numerical model whose states the ensemble
// Kalman filter assimilates. EnKF is a *sequential* data assimilation
// method (§1): an ensemble of model states is integrated forward in time to
// predict the error statistics, observations are assimilated, and the cycle
// repeats. The paper takes its background ensemble "from a long-time ocean
// model integration"; as the reproduction has no ocean GCM, this package
// implements the closest self-contained substitute that exercises the same
// code path: a 2-D linear advection–diffusion equation
//
//	∂u/∂t + c_x ∂u/∂x + c_y ∂u/∂y = ν ∇²u
//
// on the doubly periodic latitude–longitude mesh, discretized with first-
// order upwind advection and an explicit five-point diffusion stencil
// (grid spacing 1, time step Dt). The scheme is mass-conservative and
// stable under the usual CFL conditions, which the constructor enforces.
package model

import (
	"fmt"
	"math"

	"senkf/internal/grid"
)

// AdvectionDiffusion is the forward model. Velocities are in grid cells
// per unit time; ν is the diffusivity in cells² per unit time. A model holds
// parameters only — every method takes its buffers from the caller or
// allocates them per call — so one instance may be used from any number of
// goroutines at once.
type AdvectionDiffusion struct {
	Mesh grid.Mesh
	CX   float64 // zonal velocity
	CY   float64 // meridional velocity
	Nu   float64 // diffusivity
	Dt   float64 // time step
}

// New validates the parameters against the explicit scheme's stability
// conditions: (|c_x| + |c_y|)·Δt ≤ 1 (CFL) and 4ν·Δt ≤ 1 (diffusion).
func New(m grid.Mesh, cx, cy, nu, dt float64) (*AdvectionDiffusion, error) {
	if m.NX <= 0 || m.NY <= 0 {
		return nil, fmt.Errorf("model: invalid mesh %dx%d", m.NX, m.NY)
	}
	if dt <= 0 || math.IsNaN(dt) {
		return nil, fmt.Errorf("model: time step must be positive, got %g", dt)
	}
	if nu < 0 {
		return nil, fmt.Errorf("model: negative diffusivity %g", nu)
	}
	if cfl := (math.Abs(cx) + math.Abs(cy)) * dt; cfl > 1+1e-12 {
		return nil, fmt.Errorf("model: advection CFL (|cx|+|cy|)·dt = %g exceeds 1", cfl)
	}
	if d := 4 * nu * dt; d > 1+1e-12 {
		return nil, fmt.Errorf("model: diffusion number 4ν·dt = %g exceeds 1", d)
	}
	return &AdvectionDiffusion{Mesh: m, CX: cx, CY: cy, Nu: nu, Dt: dt}, nil
}

// Step advances the field by one time step, writing into dst (allocated if
// nil) and returning it. src is not modified. dst and src must not alias.
func (a *AdvectionDiffusion) Step(dst, src []float64) ([]float64, error) {
	n := a.Mesh.Points()
	if len(src) != n {
		return nil, fmt.Errorf("model: field has %d points, mesh has %d", len(src), n)
	}
	if dst == nil {
		dst = make([]float64, n)
	}
	if len(dst) != n {
		return nil, fmt.Errorf("model: dst has %d points, mesh has %d", len(dst), n)
	}
	nx, ny := a.Mesh.NX, a.Mesh.NY
	for y := 0; y < ny; y++ {
		// The periodic wrap is resolved once per row (the three row slices)
		// and once per edge column; interior points index their neighbours
		// directly.
		ym, yp := y-1, y+1
		if ym < 0 {
			ym = ny - 1
		}
		if yp == ny {
			yp = 0
		}
		row := src[y*nx:][:nx]
		south := src[ym*nx:][:nx]
		north := src[yp*nx:][:nx]
		out := dst[y*nx:][:nx]
		last := nx - 1
		out[0] = a.point(row[0], row[last], row[1%nx], south[0], north[0])
		for x := 1; x < last; x++ {
			out[x] = a.point(row[x], row[x-1], row[x+1], south[x], north[x])
		}
		if last > 0 {
			out[last] = a.point(row[last], row[last-1], row[0], south[last], north[last])
		}
	}
	return dst, nil
}

// point advances one grid point: c is its value, w/e/s/n its west, east,
// south (y−1) and north (y+1) neighbours.
func (a *AdvectionDiffusion) point(c, w, e, s, n float64) float64 {
	// Upwind advection: the difference is taken against the flow.
	dx, dy := c-w, c-s
	if a.CX < 0 {
		dx = e - c
	}
	if a.CY < 0 {
		dy = n - c
	}
	v := c - a.CX*a.Dt*dx - a.CY*a.Dt*dy
	// Explicit diffusion.
	if a.Nu > 0 {
		v += a.Nu * a.Dt * (w + e + s + n - 4*c)
	}
	return v
}

// Run advances a copy of the field by the given number of steps and returns
// it; the input is not modified.
func (a *AdvectionDiffusion) Run(field []float64, steps int) ([]float64, error) {
	out, scratch := make([]float64, len(field)), []float64(nil)
	if steps > 1 {
		scratch = make([]float64, a.Mesh.Points())
	}
	if err := a.RunInto(out, scratch, field, steps); err != nil {
		return nil, err
	}
	return out, nil
}

// RunInto advances field by the given number of steps into dst, with scratch
// as the second buffer of the step ping-pong (one mesh of values each;
// scratch is needed only for steps > 1 and its contents are scratch). The
// first step reads the input itself and the two buffers alternate so that
// the last step lands in dst: no copy in, no copy out. field is not modified
// and aliases neither buffer.
func (a *AdvectionDiffusion) RunInto(dst, scratch, field []float64, steps int) error {
	if steps < 0 {
		return fmt.Errorf("model: negative step count %d", steps)
	}
	if steps == 0 {
		copy(dst, field)
		return nil
	}
	buf := [2][]float64{dst, scratch}
	cur := field
	for s := 0; s < steps; s++ {
		next := buf[(steps-1-s)%2] // the last step writes buf[0], dst
		if _, err := a.Step(next, cur); err != nil {
			return err
		}
		cur = next
	}
	return nil
}

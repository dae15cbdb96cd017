// Package vector extends approximate agreement from R to R^d by running
// one scalar protocol instance per coordinate, multiplexed over a single
// channel with coordinate-tagged messages. This is the classical
// coordinate-wise construction:
//
//   - ε-agreement holds per coordinate, hence in the max-norm: honest
//     outputs differ by at most ε in every coordinate.
//   - Validity is box validity: every output coordinate lies in the
//     interval hull of that coordinate of the non-faulty inputs, so
//     outputs lie in the bounding box of the honest inputs. (Full convex
//     validity in R^d is the later multidimensional-agreement line of
//     work and needs machinery beyond coordinate-wise composition; the
//     box guarantee is what this construction provably gives, and the
//     vector tests pin exactly that.)
//
// Any member of the scalar family can serve as the per-coordinate engine;
// the coordinate instances share the channel but are logically
// independent, so all resilience and round bounds carry over unchanged.
package vector

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Params configures a d-dimensional instance.
type Params struct {
	// Base configures the per-coordinate scalar protocol. Base.Lo and
	// Base.Hi must bound every coordinate of every honest input.
	Base core.Params
	// Dim is the dimensionality d >= 1.
	Dim int
}

// Validate checks the parameters.
func (p *Params) Validate() error {
	if p.Dim < 1 || p.Dim > 1<<15 {
		return fmt.Errorf("%w: dim = %d", core.ErrBadParams, p.Dim)
	}
	return p.Base.Validate()
}

// AA is the d-dimensional process: d scalar state machines behind one
// channel endpoint.
type AA struct {
	p        Params
	children []sim.Process
	apis     []*childAPI
	api      sim.API
	decided  bool
	pending  int
}

var _ sim.Process = (*AA)(nil)

// New builds a party with the given input point.
func New(p Params, input []float64) (*AA, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(input) != p.Dim {
		return nil, fmt.Errorf("%w: input has %d coordinates, want %d",
			core.ErrBadParams, len(input), p.Dim)
	}
	a := &AA{
		p:        p,
		children: make([]sim.Process, p.Dim),
		apis:     make([]*childAPI, p.Dim),
		pending:  p.Dim,
	}
	for d := 0; d < p.Dim; d++ {
		child, err := core.NewProcess(p.Base, input[d])
		if err != nil {
			return nil, fmt.Errorf("vector: coordinate %d: %w", d, err)
		}
		a.children[d] = child
	}
	return a, nil
}

// childAPI exposes the parent channel to one coordinate's scalar instance,
// wrapping outbound traffic with the coordinate tag and intercepting
// Decide.
type childAPI struct {
	parent *AA
	dim    uint16
	done   bool
	value  float64
}

var _ sim.API = (*childAPI)(nil)

func (c *childAPI) ID() sim.PartyID { return c.parent.api.ID() }
func (c *childAPI) N() int          { return c.parent.api.N() }

func (c *childAPI) Send(to sim.PartyID, data []byte) {
	c.parent.api.Send(to, wire.MarshalWrapped(c.dim, data))
}

func (c *childAPI) Multicast(data []byte) {
	c.parent.api.Multicast(wire.MarshalWrapped(c.dim, data))
}

func (c *childAPI) SetTimer(delay sim.Time, tag uint64) {
	// Scalar async protocols are timer-free; a child requesting a timer
	// would need tag demultiplexing, which nothing here requires.
}

func (c *childAPI) Rand() *rand.Rand { return c.parent.api.Rand() }

func (c *childAPI) Decide(v float64) { c.parent.onChildDecide(c, v) }

// Init implements sim.Process.
func (a *AA) Init(api sim.API) {
	a.api = api
	for d := range a.children {
		a.apis[d] = &childAPI{parent: a, dim: uint16(d)}
		a.children[d].Init(a.apis[d])
	}
}

// Deliver implements sim.Process: unwrap and route by coordinate.
func (a *AA) Deliver(from sim.PartyID, data []byte) {
	kind, err := wire.Peek(data)
	if err != nil || kind != wire.KindWrapped {
		return
	}
	dim, inner, err := wire.UnmarshalWrapped(data)
	if err != nil || int(dim) >= a.p.Dim {
		return
	}
	a.children[dim].Deliver(from, inner)
}

// Outputs returns the decided point once every coordinate has decided.
func (a *AA) Outputs() ([]float64, bool) {
	if !a.decided {
		return nil, false
	}
	out := make([]float64, a.p.Dim)
	for d, api := range a.apis {
		out[d] = api.value
	}
	return out, true
}

// Err surfaces the first per-coordinate protocol error.
func (a *AA) Err() error {
	for d, child := range a.children {
		if ef, ok := child.(interface{ Err() error }); ok {
			if err := ef.Err(); err != nil {
				return fmt.Errorf("vector: coordinate %d: %w", d, err)
			}
		}
	}
	return nil
}

// onChildDecide is called by childAPI.Decide.
func (a *AA) onChildDecide(c *childAPI, v float64) {
	if c.done {
		return
	}
	c.done = true
	c.value = v
	a.pending--
	if a.pending == 0 && !a.decided {
		a.decided = true
		// The scalar Decide slot carries coordinate 0; the full point is
		// available via Outputs.
		a.api.Decide(a.apis[0].value)
	}
}

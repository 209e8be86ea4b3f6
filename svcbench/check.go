package main

import (
	"fmt"

	"lazycm/internal/interp"
	"lazycm/internal/ir"
	"lazycm/internal/lcm"
	"lazycm/internal/props"
	"lazycm/internal/randprog"
	"lazycm/internal/textir"
)

// argSeeds is how many seeded argument vectors each served function is
// run on against its input.
const argSeeds = 3

// checker holds the output checks, run after the timed window: every
// served function must parse, validate, behave like its input on seeded
// arguments and never evaluate more candidate expressions than it, and a
// function served again must come back byte-identical to its first
// answer.
type checker struct {
	first    map[string]int // fnSpec key → index into pairs
	pairs    []*pair
	verified int // pairs[:verified] have been checked
}

// pair is one distinct input function and its first served text.
type pair struct {
	spec   fnSpec
	served string
	err    string // set by verify
	// Totals over the argument seeds and static counts, set by verify.
	dynIn, dynOut, staticIn, staticOut int
}

func newChecker() *checker { return &checker{first: map[string]int{}} }

// record files the served texts of one successful request and returns
// the pair indexes they map to, or an error when a repeated function's
// bytes differ from its first answer.
func (c *checker) record(req *request, outs []string) ([]int, string) {
	idx := make([]int, len(req.fns))
	for i, s := range req.fns {
		k := s.key()
		j, seen := c.first[k]
		if !seen {
			j = len(c.pairs)
			c.first[k] = j
			c.pairs = append(c.pairs, &pair{spec: s, served: outs[i]})
		} else if c.pairs[j].served != outs[i] {
			return nil, fmt.Sprintf("%s served different bytes on repeat", s.name)
		}
		idx[i] = j
	}
	return idx, ""
}

// verify runs the semantic checks of every new pair and returns the
// failures.
func (c *checker) verify() []string {
	fresh := c.pairs[c.verified:]
	c.verified = len(c.pairs)
	parallel(len(fresh), func(i int) { fresh[i].check() })
	var errs []string
	for _, p := range fresh {
		if p.err != "" {
			errs = append(errs, p.err)
		}
	}
	return errs
}

// check compares one served function with its regenerated input.
func (p *pair) check() {
	in := p.spec.build()
	out, err := textir.ParseFunction(p.served)
	if err != nil {
		p.err = fmt.Sprintf("%s: served program does not parse: %v", p.spec.name, err)
		return
	}
	if err := ir.Validate(out); err != nil {
		p.err = fmt.Sprintf("%s: served program invalid: %v", p.spec.name, err)
		return
	}
	if out.Name != in.Name || len(out.Params) != len(in.Params) {
		p.err = fmt.Sprintf("%s: served signature differs", p.spec.name)
		return
	}
	exprs := props.Collect(in).Exprs()
	for s := int64(0); s < argSeeds; s++ {
		args := randprog.Args(in, s)
		oi, ci, err1 := interp.Run(in, interp.Options{Args: args})
		oo, co, err2 := interp.Run(out, interp.Options{Args: args})
		if err1 != nil || err2 != nil {
			p.err = fmt.Sprintf("%s: interpreting: %v %v", p.spec.name, err1, err2)
			return
		}
		if !oi.ObservablyEqual(oo) {
			p.err = fmt.Sprintf("%s: args %v: input %v, served %v", p.spec.name, args, oi, oo)
			return
		}
		din := interp.CountsRestrictedTo(ci, exprs).Total()
		dout := interp.CountsRestrictedTo(co, exprs).Total()
		if dout > din {
			p.err = fmt.Sprintf("%s: args %v: served evaluates %d candidate expressions, input %d",
				p.spec.name, args, dout, din)
			return
		}
		p.dynIn += din
		p.dynOut += dout
	}
	p.staticIn = lcm.StaticComputations(in)
	p.staticOut = lcm.StaticComputations(out)
}

// ratios sums the exact counts over every pair that passed.
func (c *checker) ratios() (dyn, static float64) {
	var di, do, si, so int
	for _, p := range c.pairs {
		if p.err == "" {
			di, do, si, so = di+p.dynIn, do+p.dynOut, si+p.staticIn, so+p.staticOut
		}
	}
	if di > 0 {
		dyn = float64(do) / float64(di)
	}
	if si > 0 {
		static = float64(so) / float64(si)
	}
	return dyn, static
}

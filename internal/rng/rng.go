// Package rng provides a small, fully deterministic random number
// generator with independent streams.
//
// The simulator cannot use wall-clock seeding or shared global state:
// every experiment must be exactly reproducible from its configuration,
// and each simulated process needs its own stream so that adding a draw
// in one process does not perturb another. The implementation is PCG
// (XSH-RR variant, 64-bit state / 32-bit output, O'Neill 2014), chosen
// for its tiny state, solid statistical quality, and cheap independent
// streams via the increment parameter.
package rng

import (
	"fmt"
	"math"
)

// Source is a deterministic pseudo-random stream. The zero value is not
// valid; use New or Make.
type Source struct {
	state uint64
	inc   uint64 // odd; selects the stream
}

const pcgMultiplier = 6364136223846793005

// New returns a stream derived from seed and stream id. Distinct
// (seed, stream) pairs give statistically independent sequences.
func New(seed, stream uint64) *Source {
	s := Make(seed, stream)
	return &s
}

// Make is New by value: the same stream, for callers that keep their
// streams inside a larger record or one slice, so that a stream per
// node or disk costs no allocation of its own.
func Make(seed, stream uint64) Source {
	s := Source{inc: stream<<1 | 1}
	s.next() // scramble the initial state per the PCG reference
	s.state += seed
	s.next()
	return s
}

func (s *Source) next() uint32 {
	old := s.state
	s.state = old*pcgMultiplier + s.inc
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint32(old >> 59)
	return xorshifted>>rot | xorshifted<<((-rot)&31)
}

// Uint32 returns a uniformly distributed 32-bit value.
func (s *Source) Uint32() uint32 { return s.next() }

// Uint64 returns a uniformly distributed 64-bit value.
func (s *Source) Uint64() uint64 {
	return uint64(s.next())<<32 | uint64(s.next())
}

// Intn returns a uniform value in [0, n). It panics if n <= 0 or
// n > math.MaxUint32, past the 32-bit draw it scales.
// Lemire's multiply-shift rejection method avoids modulo bias.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	if uint64(n) > math.MaxUint32 {
		panic(fmt.Sprintf("rng: Intn(%d) past the 32-bit range", n))
	}
	bound := uint32(n)
	threshold := -bound % bound
	for {
		r := s.next()
		m := uint64(r) * uint64(bound)
		if uint32(m) >= threshold {
			return int(m >> 32)
		}
	}
}

// IntRange returns a uniform value in [lo, hi]. It panics if hi < lo.
func (s *Source) IntRange(lo, hi int) int {
	if hi < lo {
		panic("rng: IntRange with hi < lo")
	}
	return lo + s.Intn(hi-lo+1)
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Exp returns an exponentially distributed value with the given mean,
// via inverse-transform sampling. A zero or negative mean returns 0,
// which conveniently models "no computation time" configurations.
func (s *Source) Exp(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	u := s.Float64()
	return -mean * math.Log(1-u)
}

// Perm returns a uniformly random permutation of [0, n) using
// Fisher-Yates.
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle randomizes the order of n elements using the provided swap
// function.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool { return s.Float64() < p }

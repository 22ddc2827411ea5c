package cpsolver

import (
	"math/bits"
	"strconv"
	"strings"
)

// Domain is the set of chips a node may still be assigned to, represented as
// a bitset (bit c set means chip c is allowed). Chip counts are bounded by
// mcm.MaxChips = 64, so a single word suffices and all domain operations are
// a handful of instructions — the solver's propagation loop lives on this.
type Domain uint64

// fullDomain returns the domain containing chips 0..chips-1.
func fullDomain(chips int) Domain {
	if chips >= 64 {
		return ^Domain(0)
	}
	return Domain(1)<<uint(chips) - 1
}

// Has reports whether chip c is in the domain.
func (d Domain) Has(c int) bool { return c >= 0 && c < 64 && d&(1<<uint(c)) != 0 }

// Count returns the number of chips in the domain.
func (d Domain) Count() int { return bits.OnesCount64(uint64(d)) }

// Empty reports whether no chips remain.
func (d Domain) Empty() bool { return d == 0 }

// Singleton reports whether exactly one chip remains.
func (d Domain) Singleton() bool { return d != 0 && d&(d-1) == 0 }

// Min returns the smallest chip in the domain; it panics on an empty domain.
func (d Domain) Min() int {
	if d == 0 {
		panic("cpsolver: Min of empty domain")
	}
	return bits.TrailingZeros64(uint64(d))
}

// Max returns the largest chip in the domain; it panics on an empty domain.
func (d Domain) Max() int {
	if d == 0 {
		panic("cpsolver: Max of empty domain")
	}
	return 63 - bits.LeadingZeros64(uint64(d))
}

// String renders the domain as "{0,1,5}".
func (d Domain) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	for rest := d; rest != 0; rest &= rest - 1 {
		if !first {
			b.WriteByte(',')
		}
		first = false
		b.WriteString(strconv.Itoa(bits.TrailingZeros64(uint64(rest))))
	}
	b.WriteByte('}')
	return b.String()
}

// maskGE returns the domain of all chips >= c.
func maskGE(c int) Domain {
	if c <= 0 {
		return ^Domain(0)
	}
	if c >= 64 {
		return 0
	}
	return ^(Domain(1)<<uint(c) - 1)
}

// maskLE returns the domain of all chips <= c.
func maskLE(c int) Domain {
	if c < 0 {
		return 0
	}
	if c >= 63 {
		return ^Domain(0)
	}
	return Domain(1)<<uint(c+1) - 1
}

// single returns the domain containing exactly chip c.
func single(c int) Domain { return Domain(1) << uint(c) }

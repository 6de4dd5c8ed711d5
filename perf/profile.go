package perf

import (
	"slices"
	"time"

	"act/internal/deps"
	"act/internal/nn"
)

// maxForwardSample caps how many encoded windows the forward timing
// keeps; larger passes are sampled at an even stride.
const maxForwardSample = 1 << 16

// windowProfile describes the windows one pass's modules classify: how
// many, how many are distinct (what a window memo could serve), and an
// encoded sample for timing the network alone.
type windowProfile struct {
	stride  int
	windows int
	keys    []uint64
	groups  []*forwardGroup
}

// forwardGroup is a sample of windows classified by one network.
type forwardGroup struct {
	net  *nn.Network
	feat []float64 // encoded windows, net.NIn values each
}

// newWindowProfile sizes the sampling stride for a pass classifying
// about windows windows.
func newWindowProfile(windows int) *windowProfile {
	return &windowProfile{stride: max(1, (windows+maxForwardSample-1)/maxForwardSample)}
}

// group starts a sample for windows classified by net.
func (p *windowProfile) group(net *nn.Network) *forwardGroup {
	g := &forwardGroup{net: net}
	p.groups = append(p.groups, g)
	return g
}

// addStream profiles one module's dependence stream. The module
// classifies one window per dependence: the last n dependences, padded
// at the front with zero dependences until n have arrived (the rule in
// core.Module.OnDep). scope distinguishes modules, since a window memo
// is per module.
func (p *windowProfile) addStream(scope uint64, g *forwardGroup, n int, enc deps.Encoder, stream []deps.Dep) {
	win := make(deps.Sequence, n)
	var x []float64
	for i := range stream {
		h := scope
		for j := range win {
			if k := i - n + 1 + j; k >= 0 {
				win[j] = stream[k]
			} else {
				win[j] = deps.Dep{}
			}
			d := win[j]
			h = mix(mix(mix(h, d.S), d.L), b2u(d.Inter))
		}
		p.keys = append(p.keys, h)
		if p.windows%p.stride == 0 {
			x = enc(win, x)
			g.feat = append(g.feat, x...)
		}
		p.windows++
	}
}

// distinctRatio is the share of classified windows that are distinct
// within their module.
func (p *windowProfile) distinctRatio() float64 {
	if len(p.keys) == 0 {
		return 0
	}
	k := slices.Clone(p.keys)
	slices.Sort(k)
	return float64(len(slices.Compact(k))) / float64(len(k))
}

// forwardNS times nn.Network.Forward over the sampled windows and
// returns the mean nanoseconds per window. Repeated windows run through
// the network every time, so where a memo would serve hits this is the
// upper bound on the network's cost.
func (p *windowProfile) forwardNS(quick bool) float64 {
	budget := 200 * time.Millisecond
	if quick {
		budget = 10 * time.Millisecond
	}
	n := 0
	start := time.Now()
	for n == 0 || time.Since(start) < budget {
		for _, g := range p.groups {
			in := g.net.NIn
			for i := 0; i+in <= len(g.feat); i += in {
				g.net.Forward(g.feat[i : i+in])
				n++
			}
		}
		if n == 0 {
			return 0
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// mix folds x into the hash h (FNV-1a over the 8 bytes of x).
func mix(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= 1099511628211
		x >>= 8
	}
	return h
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

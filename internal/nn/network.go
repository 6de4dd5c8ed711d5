// Package nn implements the one-hidden-layer feed-forward neural network
// ACT uses to classify RAW dependence sequences, with backpropagation
// learning — the software twin of the partially configurable hardware
// network of Section IV-A. The package is generic over inputs; feature
// encoding lives with the dependence tracker.
//
// Topologies are i-h-1: i inputs (1 ≤ i ≤ MaxInputs), h hidden neurons
// (1 ≤ h ≤ MaxInputs), one output neuron. The output is a sigmoid in
// (0, 1); outputs ≥ 0.5 classify the sequence as valid. The magnitude of
// (output − 0.5) approximates prediction confidence, and "most negative
// output" in the ranking tie-break means smallest raw output.
package nn

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// MaxInputs is M, the hardware bound on a neuron's fan-in; it also caps
// the hidden-layer width (the pipeline has M hidden neurons plus one
// output neuron: the paper's "total neuron 11" with M = 10).
const MaxInputs = 10

// Activation computes the neuron activation function. The default is the
// exact sigmoid; the hardware model substitutes a quantized lookup table.
type Activation func(float64) float64

// Sigmoid is the exact logistic function.
func Sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// Network is a one-hidden-layer perceptron. The zero value is unusable;
// use New or Load.
type Network struct {
	NIn     int
	NHidden int
	// WH[h] holds hidden neuron h's weights: NIn input weights then the
	// bias. WO holds the output neuron's weights: NHidden weights then
	// the bias.
	WH  [][]float64
	WO  []float64
	Act Activation
	// Momentum is the classical momentum coefficient applied by Train
	// (0 disables it). Momentum is training state, not part of the
	// serialized weights.
	Momentum float64

	hidden []float64   // scratch: last hidden activations
	vh     [][]float64 // momentum velocity, hidden weights
	vo     []float64   // momentum velocity, output weights
}

// New creates a network with the given topology and small random
// weights drawn from rng. A nil rng leaves every weight zero, for
// callers that load weights right away.
func New(nIn, nHidden int, rng *rand.Rand) *Network {
	if nIn < 1 || nIn > MaxInputs || nHidden < 1 || nHidden > MaxInputs {
		panic(fmt.Sprintf("nn: invalid topology %d-%d-1", nIn, nHidden))
	}
	n := &Network{NIn: nIn, NHidden: nHidden, Act: Sigmoid}
	n.WH = make([][]float64, nHidden)
	for h := range n.WH {
		n.WH[h] = make([]float64, nIn+1)
	}
	n.WO = make([]float64, nHidden+1)
	n.hidden = make([]float64, nHidden)
	if rng != nil {
		for _, w := range n.WH {
			for i := range w {
				w[i] = rng.Float64() - 0.5
			}
		}
		for i := range n.WO {
			n.WO[i] = rng.Float64() - 0.5
		}
	}
	return n
}

// Clone returns a deep copy sharing no state.
func (n *Network) Clone() *Network {
	c := &Network{NIn: n.NIn, NHidden: n.NHidden, Act: n.Act}
	c.WH = make([][]float64, n.NHidden)
	for h := range n.WH {
		c.WH[h] = append([]float64(nil), n.WH[h]...)
	}
	c.WO = append([]float64(nil), n.WO...)
	c.hidden = make([]float64, n.NHidden)
	return c
}

// Forward computes the network output for input x (len must be NIn).
// It is on the classification hot path and allocation-free; the panic
// guard below fires only on programmer error.
//
//act:noalloc
func (n *Network) Forward(x []float64) float64 {
	if len(x) != n.NIn {
		//act:alloc-ok topology-mismatch panic, cold guard
		panic(fmt.Sprintf("nn: input width %d, want %d", len(x), n.NIn))
	}
	statForward.Inc()
	return n.forward(x)
}

// ForwardWindows classifies len(outs) windows packed densely in a
// feature slab: window k's input is feat[k·NIn : (k+1)·NIn]. It is the
// float twin of QNetwork.ForwardWindows — Forward's arithmetic per
// window, bit for bit, with the forward-pass counter batched.
//
//act:noalloc
func (n *Network) ForwardWindows(feat, outs []float64) {
	nin := n.NIn
	if len(outs)*nin > len(feat) {
		//act:alloc-ok slab-shape panic, cold guard
		panic(fmt.Sprintf("nn: slab of %d too short for %d windows of %d", len(feat), len(outs), nin))
	}
	statForward.Add(uint64(len(outs)))
	for k := range outs {
		outs[k] = n.forward(feat[k*nin : (k+1)*nin])
	}
}

// forward is one pass over an input of width NIn, uncounted.
//
//act:noalloc
func (n *Network) forward(x []float64) float64 {
	act := n.Act
	if act == nil {
		act = Sigmoid
	}
	for h, w := range n.WH {
		sum := w[n.NIn] // bias
		for i, xi := range x {
			sum += w[i] * xi
		}
		n.hidden[h] = act(sum) //act:alloc-ok-call activation functions are pure math
	}
	sum := n.WO[n.NHidden]
	for h, hv := range n.hidden {
		sum += n.WO[h] * hv
	}
	return act(sum) //act:alloc-ok-call activation functions are pure math
}

// Valid classifies input x: true when the output is at least 0.5.
func (n *Network) Valid(x []float64) bool { return n.Forward(x) >= 0.5 }

// Train performs one backpropagation step toward target (typically 0.9
// for valid, 0.1 for invalid) with the given learning rate, returning
// the pre-update output. The error terms use the sigmoid derivative
// o·(1−o) exactly as in Section II-A; when Momentum is set, classical
// momentum accelerates convergence on hard (XOR-like) datasets.
//
// Online training runs this per dependence; with Momentum disabled (the
// module default) the body is allocation-free, and with momentum the
// velocity buffers are lazily allocated exactly once.
//
//act:noalloc
func (n *Network) Train(x []float64, target, lr float64) float64 {
	statTrain.Inc()
	o := n.Forward(x)
	errOut := o * (1 - o) * (target - o)
	mu := n.Momentum
	if mu > 0 && n.vh == nil {
		n.vh = make([][]float64, n.NHidden) //act:alloc-ok momentum velocity, lazy one-time init
		for h := range n.vh {
			n.vh[h] = make([]float64, n.NIn+1) //act:alloc-ok momentum velocity, lazy one-time init
		}
		n.vo = make([]float64, n.NHidden+1) //act:alloc-ok momentum velocity, lazy one-time init
	}

	// Hidden-layer error terms are the back-propagated share of the
	// output error, scaled by each hidden activation's derivative.
	for h, hv := range n.hidden {
		errH := hv * (1 - hv) * n.WO[h] * errOut
		w := n.WH[h]
		if mu > 0 {
			v := n.vh[h]
			for i, xi := range x {
				v[i] = mu*v[i] + lr*errH*xi
				w[i] += v[i]
			}
			v[n.NIn] = mu*v[n.NIn] + lr*errH
			w[n.NIn] += v[n.NIn]
		} else {
			for i, xi := range x {
				w[i] += lr * errH * xi
			}
			w[n.NIn] += lr * errH
		}
	}
	if mu > 0 {
		for h, hv := range n.hidden {
			n.vo[h] = mu*n.vo[h] + lr*errOut*hv
			n.WO[h] += n.vo[h]
		}
		n.vo[n.NHidden] = mu*n.vo[n.NHidden] + lr*errOut
		n.WO[n.NHidden] += n.vo[n.NHidden]
	} else {
		for h, hv := range n.hidden {
			n.WO[h] += lr * errOut * hv
		}
		n.WO[n.NHidden] += lr * errOut
	}
	return o
}

// WeightCount returns the total number of weights, which is the length
// of the flattened weight-register array the ldwt/stwt instructions
// address.
func (n *Network) WeightCount() int { return n.NHidden*(n.NIn+1) + n.NHidden + 1 }

// Flatten appends all weights, hidden neurons first, to dst and returns
// it. The layout matches ReadRegisters/WriteRegisters index order.
func (n *Network) Flatten(dst []float64) []float64 {
	for _, w := range n.WH {
		dst = append(dst, w...) //act:alloc-ok callers pass dst preallocated to WeightCount
	}
	return append(dst, n.WO...) //act:alloc-ok callers pass dst preallocated to WeightCount
}

// LoadFlat overwrites all weights from a flattened array produced by
// Flatten. It returns an error on length mismatch.
func (n *Network) LoadFlat(w []float64) error {
	if len(w) != n.WeightCount() {
		return fmt.Errorf("nn: weight count %d, want %d", len(w), n.WeightCount()) //act:alloc-ok length-mismatch error, cold path
	}
	for h := range n.WH {
		copy(n.WH[h], w[:n.NIn+1])
		w = w[n.NIn+1:]
	}
	copy(n.WO, w)
	return nil
}

// ReadRegister returns the weight at flat index i (the ldwt instruction).
func (n *Network) ReadRegister(i int) float64 {
	per := n.NIn + 1
	if h := i / per; h < n.NHidden {
		return n.WH[h][i%per]
	}
	return n.WO[i-n.NHidden*per]
}

// WriteRegister sets the weight at flat index i (the stwt instruction).
func (n *Network) WriteRegister(i int, v float64) {
	per := n.NIn + 1
	if h := i / per; h < n.NHidden {
		n.WH[h][i%per] = v
		return
	}
	n.WO[i-n.NHidden*per] = v
}

// Binary weight-blob format, the stand-in for weights stored in the
// program binary: u32 nIn | u32 nHidden | float64 weights (flat order).
const blobHeader = 8

// MarshalBinary serializes the topology and weights.
func (n *Network) MarshalBinary() ([]byte, error) {
	buf := make([]byte, blobHeader, blobHeader+8*n.WeightCount())
	binary.LittleEndian.PutUint32(buf[0:], uint32(n.NIn))
	binary.LittleEndian.PutUint32(buf[4:], uint32(n.NHidden))
	for _, w := range n.Flatten(nil) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(w))
		buf = append(buf, b[:]...)
	}
	return buf, nil
}

// UnmarshalBinary reconstructs a network serialized by MarshalBinary.
func (n *Network) UnmarshalBinary(data []byte) error {
	if len(data) < blobHeader {
		return errors.New("nn: weight blob too short")
	}
	nIn := int(binary.LittleEndian.Uint32(data[0:]))
	nHidden := int(binary.LittleEndian.Uint32(data[4:]))
	if nIn < 1 || nIn > MaxInputs || nHidden < 1 || nHidden > MaxInputs {
		return fmt.Errorf("nn: invalid topology %d-%d-1 in blob", nIn, nHidden)
	}
	want := nHidden*(nIn+1) + nHidden + 1
	if len(data) != blobHeader+8*want {
		return fmt.Errorf("nn: blob length %d, want %d", len(data), blobHeader+8*want)
	}
	flat := make([]float64, want)
	for i := range flat {
		flat[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[blobHeader+8*i:]))
	}
	*n = *New(nIn, nHidden, nil)
	return n.LoadFlat(flat)
}

// Topology renders the topology as "i-h-1".
func (n *Network) Topology() string { return fmt.Sprintf("%d-%d-1", n.NIn, n.NHidden) }

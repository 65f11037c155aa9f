package mlcore

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
)

// SoftmaxClassifier is multinomial logistic regression: logits = W·x + b
// per class, cross-entropy loss, dense gradients. Small enough to be
// exact, big enough to exercise every distributed-training code path.
type SoftmaxClassifier struct {
	Classes  int
	Features int
	// W is row-major [Classes][Features]; B is per-class bias.
	W [][]float64
	B []float64
}

// NewSoftmaxClassifier returns a zero-initialized model (zero init is
// fine for convex softmax regression).
func NewSoftmaxClassifier(features, classes int) *SoftmaxClassifier {
	m := &SoftmaxClassifier{Classes: classes, Features: features, B: make([]float64, classes)}
	m.W = make([][]float64, classes)
	for c := range m.W {
		m.W[c] = make([]float64, features)
	}
	return m
}

// ParamCount returns the number of trainable parameters.
func (m *SoftmaxClassifier) ParamCount() int { return m.Classes * (m.Features + 1) }

// logits computes class scores for one example.
func (m *SoftmaxClassifier) logits(x []float64) []float64 {
	out := make([]float64, m.Classes)
	for c := 0; c < m.Classes; c++ {
		s := m.B[c]
		row := m.W[c]
		for j, v := range x {
			s += row[j] * v
		}
		out[c] = s
	}
	return out
}

// softmax converts logits to probabilities in place (stable).
func softmax(z []float64) {
	max := z[0]
	for _, v := range z[1:] {
		if v > max {
			max = v
		}
	}
	var sum float64
	for i, v := range z {
		z[i] = math.Exp(v - max)
		sum += z[i]
	}
	for i := range z {
		z[i] /= sum
	}
}

// Predict returns the argmax class for one example (argmax over raw
// logits equals argmax over softmax).
func (m *SoftmaxClassifier) Predict(x []float64) int {
	z := m.logits(x)
	out := 0
	for c := 1; c < len(z); c++ {
		if z[c] > z[out] {
			out = c
		}
	}
	return out
}

// PredictProba returns class probabilities for one example.
func (m *SoftmaxClassifier) PredictProba(x []float64) []float64 {
	z := m.logits(x)
	softmax(z)
	return z
}

// Accuracy evaluates top-1 accuracy on a dataset.
func (m *SoftmaxClassifier) Accuracy(d *Dataset) float64 {
	if d.Len() == 0 {
		return 0
	}
	correct := 0
	for i, x := range d.X {
		if m.Predict(x) == d.Y[i] {
			correct++
		}
	}
	return float64(correct) / float64(d.Len())
}

// LossAndGrad computes mean cross-entropy loss and its gradient over the
// examples [lo, hi) of d, writing the flattened gradient into grad
// (layout: W row-major, then B). grad must have ParamCount elements.
func (m *SoftmaxClassifier) LossAndGrad(d *Dataset, lo, hi int, grad []float64) (float64, error) {
	if len(grad) != m.ParamCount() {
		return 0, fmt.Errorf("mlcore: grad length %d, want %d", len(grad), m.ParamCount())
	}
	if lo < 0 || hi > d.Len() || lo >= hi {
		return 0, fmt.Errorf("mlcore: bad batch [%d, %d) of %d", lo, hi, d.Len())
	}
	for i := range grad {
		grad[i] = 0
	}
	n := float64(hi - lo)
	var loss float64
	for i := lo; i < hi; i++ {
		x, y := d.X[i], d.Y[i]
		p := m.logits(x)
		softmax(p)
		loss += -math.Log(math.Max(p[y], 1e-12))
		for c := 0; c < m.Classes; c++ {
			delta := p[c]
			if c == y {
				delta -= 1
			}
			base := c * m.Features
			for j, v := range x {
				grad[base+j] += delta * v / n
			}
			grad[m.Classes*m.Features+c] += delta / n
		}
	}
	return loss / n, nil
}

// ApplyGrad performs one SGD step: params -= lr × grad.
func (m *SoftmaxClassifier) ApplyGrad(grad []float64, lr float64) error {
	if len(grad) != m.ParamCount() {
		return fmt.Errorf("mlcore: grad length %d, want %d", len(grad), m.ParamCount())
	}
	for c := 0; c < m.Classes; c++ {
		base := c * m.Features
		row := m.W[c]
		for j := range row {
			row[j] -= lr * grad[base+j]
		}
		m.B[c] -= lr * grad[m.Classes*m.Features+c]
	}
	return nil
}

// Clone deep-copies the model.
func (m *SoftmaxClassifier) Clone() *SoftmaxClassifier {
	out := NewSoftmaxClassifier(m.Features, m.Classes)
	for c := range m.W {
		copy(out.W[c], m.W[c])
	}
	copy(out.B, m.B)
	return out
}

// Equal reports whether two models have identical parameters within eps.
//
//lint:ignore deadcode the DDP-equivalence and marshal round-trip tests of Train and Unmarshal compare models with it
func (m *SoftmaxClassifier) Equal(o *SoftmaxClassifier, eps float64) bool {
	if m.Classes != o.Classes || m.Features != o.Features {
		return false
	}
	for c := range m.W {
		for j := range m.W[c] {
			if math.Abs(m.W[c][j]-o.W[c][j]) > eps {
				return false
			}
		}
		if math.Abs(m.B[c]-o.B[c]) > eps {
			return false
		}
	}
	return true
}

// Marshal serializes the model for the registry's artifact store.
func (m *SoftmaxClassifier) Marshal() ([]byte, error) { return json.Marshal(m) }

// Unmarshal restores a model serialized with Marshal.
func Unmarshal(data []byte) (*SoftmaxClassifier, error) {
	var m SoftmaxClassifier
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, err
	}
	if m.Classes == 0 || len(m.W) != m.Classes {
		return nil, errors.New("mlcore: malformed model blob")
	}
	return &m, nil
}

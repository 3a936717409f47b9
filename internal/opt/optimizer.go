// Package opt implements the two first-order optimisers the repository
// trains with: plain SGD, which both sides of every split deployment and
// every baseline use, and Adam, which the privacy module's
// reconstruction-attack decoder uses.
//
// Adam owns per-parameter state keyed by the *nn.Param pointer, so the
// same instance must be used for the lifetime of a model. SGD keeps no
// state, so a restored model resumes it exactly.
package opt

import (
	"fmt"
	"math"

	"github.com/stsl/stsl/internal/nn"
	"github.com/stsl/stsl/internal/tensor"
)

// Optimizer applies accumulated gradients to parameters.
type Optimizer interface {
	// Step consumes the gradients currently accumulated on params and
	// updates their values. It does not zero the gradients; callers
	// decide when to clear (allowing gradient accumulation).
	Step(params []*nn.Param)
}

// Config collects options shared by all optimisers.
type Config struct {
	// LR is the learning rate. Required, must be positive.
	LR float64
}

func (c Config) validate() error {
	if c.LR <= 0 {
		return fmt.Errorf("opt: learning rate must be positive, got %v", c.LR)
	}
	return nil
}

// SGD is plain stochastic gradient descent.
type SGD struct {
	cfg Config
}

// NewSGD constructs an SGD optimiser.
func NewSGD(cfg Config) (*SGD, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &SGD{cfg: cfg}, nil
}

// Step implements Optimizer.
func (o *SGD) Step(params []*nn.Param) {
	for _, p := range params {
		p.Value.AXPY(-o.cfg.LR, p.Grad)
	}
}

// Adam is the Adam optimiser (Kingma & Ba, 2015) with bias correction.
type Adam struct {
	cfg          Config
	beta1, beta2 float64
	eps          float64
	t            int
	m, v         map[*nn.Param]*tensor.Tensor
}

// NewAdam constructs an Adam optimiser with the standard defaults
// beta1=0.9, beta2=0.999, eps=1e-8.
func NewAdam(cfg Config) (*Adam, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Adam{
		cfg:   cfg,
		beta1: 0.9, beta2: 0.999, eps: 1e-8,
		m: make(map[*nn.Param]*tensor.Tensor),
		v: make(map[*nn.Param]*tensor.Tensor),
	}, nil
}

// Step implements Optimizer.
func (o *Adam) Step(params []*nn.Param) {
	o.t++
	bc1 := 1 - math.Pow(o.beta1, float64(o.t))
	bc2 := 1 - math.Pow(o.beta2, float64(o.t))
	for _, p := range params {
		m, ok := o.m[p]
		if !ok {
			m = tensor.New(p.Value.Shape()...)
			o.m[p] = m
			o.v[p] = tensor.New(p.Value.Shape()...)
		}
		v := o.v[p]
		md, vd, gd, pd := m.Data(), v.Data(), p.Grad.Data(), p.Value.Data()
		for i, g := range gd {
			md[i] = o.beta1*md[i] + (1-o.beta1)*g
			vd[i] = o.beta2*vd[i] + (1-o.beta2)*g*g
			mhat := md[i] / bc1
			vhat := vd[i] / bc2
			pd[i] -= o.cfg.LR * mhat / (math.Sqrt(vhat) + o.eps)
		}
	}
}

// Interface compliance checks.
var (
	_ Optimizer = (*SGD)(nil)
	_ Optimizer = (*Adam)(nil)
)

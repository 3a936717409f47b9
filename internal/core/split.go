// Package core implements the paper's contribution: spatio-temporal split
// learning. A deep network is cut after the first k hidden blocks; M
// end-systems each hold a private copy of the layers below the cut and
// their own local training data, while one centralized server holds the
// shared layers above the cut, an output layer, and the parameter-
// scheduling queue that absorbs geo-distributed arrival skew.
//
// The package provides the model-splitting machinery (Split, Deployment),
// the two protocol actors (EndSystem, Server), and a deterministic
// event-driven simulation over virtual time (Simulation) reproducing the
// paper's experiments. The connection-driven runtime that drives the same
// actors over real transports is internal/cluster.
package core

import (
	"fmt"

	"github.com/stsl/stsl/internal/nn"
)

// Split partitions a built Fig-3 CNN at the given cut point (in paper
// notation: cut=k puts blocks L1..Lk on the end-system; cut=0 puts
// everything on the server). The returned Sequentials share layer objects
// with the original network — training the parts trains the whole.
func Split(m *nn.PaperCNN, cut int) (client, server *nn.Sequential, err error) {
	idx, err := m.CutIndex(cut)
	if err != nil {
		return nil, nil, err
	}
	layers := m.Net.Layers()
	client, err = nn.NewSequential(fmt.Sprintf("client-cut%d", cut), layers[:idx]...)
	if err != nil {
		return nil, nil, err
	}
	server, err = nn.NewSequential(fmt.Sprintf("server-cut%d", cut), layers[idx:]...)
	if err != nil {
		return nil, nil, err
	}
	return client, server, nil
}

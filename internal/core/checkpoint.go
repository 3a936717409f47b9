package core

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"github.com/stsl/stsl/internal/tensor"
)

// ErrCheckpointCorrupt reports a checkpoint whose bytes cannot be
// trusted: a payload shorter than its header promises (torn write) or a
// CRC32C mismatch (bit rot). Restore logic matches it with errors.Is to
// fall back to an older verified generation instead of refusing to
// boot. Verification happens before any weight is mutated, so a corrupt
// checkpoint leaves the server exactly as it was.
var ErrCheckpointCorrupt = errors.New("core: checkpoint corrupt")

// ckptCRCTable is the CRC32C (Castagnoli) table shared with the wire
// codec's checksummed frames — one polynomial for the whole integrity
// layer.
var ckptCRCTable = crc32.MakeTable(crc32.Castagnoli)

// SavePoolState writes the server side's training state — the one server
// checkpoint format: a header carrying the replica count (a single-model
// server is a pool of one), the pool's step total, this checkpoint's
// position in its generation chain (gen, taken from parent — so an
// auditor, or a restore that distrusts mtimes, can reconstruct lineage
// from the files alone), and the payload's length and CRC32C, followed by
// the replica weight stacks. Readers verify the CRC before trusting a
// byte, so torn writes and bit rot are detected instead of silently
// restored. It covers only the centralized side: end-systems are separate
// processes that keep (and checkpoint) their own private stacks.
// Optimiser slot state (momentum, Adam moments) is not included; plain
// SGD resumes exactly, stateful optimisers restart their slots cold.
func SavePoolState(w io.Writer, replicas []*Server, gen, parent int) error {
	if len(replicas) == 0 {
		return fmt.Errorf("core: pool state needs at least one replica")
	}
	total := 0
	for _, rep := range replicas {
		total += rep.steps
	}
	// The payload is buffered first: the header must promise the exact
	// length and CRC of what follows, which streaming cannot know yet.
	var payload bytes.Buffer
	for i, rep := range replicas {
		if err := rep.Stack.SaveWeights(&payload); err != nil {
			return fmt.Errorf("core: pool state replica %d weights: %w", i, err)
		}
	}
	sum := crc32.Checksum(payload.Bytes(), ckptCRCTable)
	if _, err := fmt.Fprintf(w, "STSLPOOL2 workers=%d steps=%d gen=%d parent=%d len=%d crc=%08x\n",
		len(replicas), total, gen, parent, payload.Len(), sum); err != nil {
		return fmt.Errorf("core: pool state header: %w", err)
	}
	if _, err := w.Write(payload.Bytes()); err != nil {
		return fmt.Errorf("core: pool state payload: %w", err)
	}
	return nil
}

// LoadState restores state written by SavePoolState into a server of
// identical stack structure, resuming the step counter and the shared
// weights. A checkpoint carrying N replica stacks is restored as their
// uniform FedAvg average — the same aggregation the pool would have
// produced at its next sync barrier — so an N-replica checkpoint loads
// into an M-worker server for any N and M: the caller fans the averaged
// weights out to however many replicas it runs (average-then-fan-out,
// never dropped replicas). Any other header is refused as unrecognised.
func (s *Server) LoadState(r io.Reader) error {
	br := bufio.NewReader(r)
	header, err := br.ReadString('\n')
	if err != nil {
		return fmt.Errorf("core: server state header: %w", err)
	}
	var steps, workers, gen, parent, plen int
	var sum uint32
	if n, _ := fmt.Sscanf(header, "STSLPOOL2 workers=%d steps=%d gen=%d parent=%d len=%d crc=%x",
		&workers, &steps, &gen, &parent, &plen, &sum); n != 6 {
		return fmt.Errorf("core: unrecognised server state header %q", header)
	}
	if workers <= 0 {
		return fmt.Errorf("core: pool state has non-positive worker count %d", workers)
	}
	if steps < 0 {
		return fmt.Errorf("core: pool state has negative step count %d", steps)
	}
	if plen < 0 {
		return fmt.Errorf("core: pool state has negative payload length %d", plen)
	}
	// The whole payload is read and CRC-verified before a single weight
	// is touched: a corrupt checkpoint must leave the server untouched so
	// the caller can fall back to an older generation. LimitReader bounds
	// the read by the stream's real size even if a corrupted header
	// announces an absurd length.
	var payload bytes.Buffer
	got, err := io.Copy(&payload, io.LimitReader(br, int64(plen)))
	if err != nil {
		return fmt.Errorf("core: read pool state payload: %w", err)
	}
	if got != int64(plen) {
		return fmt.Errorf("core: pool state payload %d of %d bytes (torn write): %w",
			got, plen, ErrCheckpointCorrupt)
	}
	if s := crc32.Checksum(payload.Bytes(), ckptCRCTable); s != sum {
		return fmt.Errorf("core: pool state crc32c %08x, header says %08x: %w",
			s, sum, ErrCheckpointCorrupt)
	}
	if err := s.loadAveraged(bytes.NewReader(payload.Bytes()), workers); err != nil {
		return err
	}
	s.steps = steps
	return nil
}

// loadAveraged reads workers consecutive weight stacks from r and
// restores their uniform FedAvg average into s.Stack: each stack is
// loaded into s.Stack in turn (the only structural twin we hold) and
// folded into accumulator tensors at weight 1/N. A pool of one is its own
// average and is loaded as is.
func (s *Server) loadAveraged(r io.Reader, workers int) error {
	if workers == 1 {
		if err := s.Stack.LoadWeights(r); err != nil {
			return fmt.Errorf("core: restore server weights: %w", err)
		}
		return nil
	}
	params := s.Stack.Params()
	accs := make([]*tensor.Tensor, len(params))
	for i, p := range params {
		accs[i] = tensor.New(p.Value.Shape()...)
	}
	for k := 0; k < workers; k++ {
		if err := s.Stack.LoadWeights(r); err != nil {
			return fmt.Errorf("core: restore pool replica %d weights: %w", k, err)
		}
		for i, p := range params {
			accs[i].AXPY(1/float64(workers), p.Value)
		}
	}
	for i, p := range params {
		p.Value.CopyFrom(accs[i])
	}
	return nil
}

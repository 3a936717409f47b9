package core

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
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

// SaveState writes the server side's training state — the one server
// checkpoint format: a header carrying the step count, this checkpoint's
// position in its generation chain (gen, taken from parent — so an
// auditor, or a restore that distrusts mtimes, can reconstruct lineage
// from the files alone), and the payload's length and CRC32C, followed by
// the weight stack. Readers verify the CRC before trusting a byte, so
// torn writes and bit rot are detected instead of silently restored. It
// covers only the centralized side: end-systems are separate processes
// that keep (and checkpoint) their own private stacks. The server steps
// with plain SGD, which keeps no state beyond the weights, so a restore
// resumes training exactly.
func (s *Server) SaveState(w io.Writer, gen, parent int) error {
	// The payload is buffered first: the header must promise the exact
	// length and CRC of what follows, which streaming cannot know yet.
	var payload bytes.Buffer
	if err := s.Stack.SaveWeights(&payload); err != nil {
		return fmt.Errorf("core: server state weights: %w", err)
	}
	sum := crc32.Checksum(payload.Bytes(), ckptCRCTable)
	if _, err := fmt.Fprintf(w, "STSLSRV3 steps=%d gen=%d parent=%d len=%d crc=%08x\n",
		s.steps, gen, parent, payload.Len(), sum); err != nil {
		return fmt.Errorf("core: server state header: %w", err)
	}
	if _, err := w.Write(payload.Bytes()); err != nil {
		return fmt.Errorf("core: server state payload: %w", err)
	}
	return nil
}

// LoadState restores state written by SaveState into a server of
// identical stack structure, resuming the step counter and the weights.
// Any other header is refused as unrecognised.
func (s *Server) LoadState(r io.Reader) error {
	br := bufio.NewReader(r)
	header, err := br.ReadString('\n')
	if err != nil {
		return fmt.Errorf("core: server state header: %w", err)
	}
	var steps, gen, parent, plen int
	var sum uint32
	if n, _ := fmt.Sscanf(header, "STSLSRV3 steps=%d gen=%d parent=%d len=%d crc=%x",
		&steps, &gen, &parent, &plen, &sum); n != 5 {
		return fmt.Errorf("core: unrecognised server state header %q", header)
	}
	if steps < 0 {
		return fmt.Errorf("core: server state has negative step count %d", steps)
	}
	if plen < 0 {
		return fmt.Errorf("core: server state has negative payload length %d", plen)
	}
	// The whole payload is read and CRC-verified before a single weight
	// is touched: a corrupt checkpoint must leave the server untouched so
	// the caller can fall back to an older generation. LimitReader bounds
	// the read by the stream's real size even if a corrupted header
	// announces an absurd length.
	var payload bytes.Buffer
	got, err := io.Copy(&payload, io.LimitReader(br, int64(plen)))
	if err != nil {
		return fmt.Errorf("core: read server state payload: %w", err)
	}
	if got != int64(plen) {
		return fmt.Errorf("core: server state payload %d of %d bytes (torn write): %w",
			got, plen, ErrCheckpointCorrupt)
	}
	if s := crc32.Checksum(payload.Bytes(), ckptCRCTable); s != sum {
		return fmt.Errorf("core: server state crc32c %08x, header says %08x: %w",
			s, sum, ErrCheckpointCorrupt)
	}
	if err := s.Stack.LoadWeights(&payload); err != nil {
		return fmt.Errorf("core: restore server weights: %w", err)
	}
	s.steps = steps
	return nil
}

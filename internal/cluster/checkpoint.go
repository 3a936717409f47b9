package cluster

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"github.com/stsl/stsl/internal/core"
)

// DefaultCheckpointKeep is how many checkpoint generations
// FileCheckpointer retains on disk. Three survives the worst realistic
// case — the latest torn by a crash mid-publish AND its parent hit by
// bit rot — while bounding disk use at a few model sizes.
const DefaultCheckpointKeep = 3

// FileCheckpointer returns a Checkpoint sink that persists the server's
// training state to path with crash and corruption resilience:
//
//   - Atomic + durable publish: the state is written to a sibling temp
//     file, fsynced, renamed into place, and the directory fsynced — so
//     neither a crash mid-write nor a crash right after the rename can
//     leave a torn or unpublished checkpoint where a reader would trust
//     it (rename alone is not durable on ext4-class filesystems).
//   - Generation chain: every save also lands as path.g<N> carrying its
//     generation and parent in its header, and the last
//     DefaultCheckpointKeep generations are retained. RestoreFromFile
//     verifies checksums and falls back to the newest generation that
//     passes, so one corrupted file costs one checkpoint interval of
//     progress instead of the whole run.
func FileCheckpointer(path string) func(*core.Server) error {
	return GenerationalCheckpointer(path, DefaultCheckpointKeep)
}

// GenerationalCheckpointer is FileCheckpointer with an explicit
// retention depth. keep <= 1 retains only the latest generation file
// (path itself is always maintained besides the generation files).
func GenerationalCheckpointer(path string, keep int) func(*core.Server) error {
	if keep < 1 {
		keep = 1
	}
	var mu sync.Mutex
	gen := -1 // lazily initialised from the files already on disk
	return func(srv *core.Server) error {
		mu.Lock()
		defer mu.Unlock()
		if gen < 0 {
			gen = latestGeneration(path)
		}
		parent := gen
		gen++
		var buf bytes.Buffer
		if err := srv.SaveState(&buf, gen, parent); err != nil {
			return err
		}
		// The generation file is published first, then the stable path:
		// if the process dies between the two, path still names the
		// previous verified generation and the new one is reachable by
		// the fallback scan.
		if err := publishSync(genPath(path, gen), buf.Bytes()); err != nil {
			return err
		}
		if err := publishSync(path, buf.Bytes()); err != nil {
			return err
		}
		for g := gen - keep; g > 0; g-- {
			if err := os.Remove(genPath(path, g)); err != nil {
				if os.IsNotExist(err) {
					break // older ones were pruned on earlier saves
				}
				return fmt.Errorf("cluster: prune checkpoint generation %d: %w", g, err)
			}
		}
		return nil
	}
}

// genPath names generation g of the checkpoint at path.
func genPath(path string, g int) string { return fmt.Sprintf("%s.g%d", path, g) }

// latestGeneration scans the directory for path.g<N> files and returns
// the highest N, or 0 when none exist — so a restarted server continues
// the chain instead of overwriting generation 1.
func latestGeneration(path string) int {
	matches, err := filepath.Glob(path + ".g*")
	if err != nil {
		return 0
	}
	best := 0
	for _, m := range matches {
		g, err := strconv.Atoi(strings.TrimPrefix(m, path+".g"))
		if err == nil && g > best {
			best = g
		}
	}
	return best
}

// publishSync writes data to path atomically and durably: temp file,
// fsync, rename, directory fsync.
func publishSync(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("cluster: checkpoint temp file: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after the rename succeeds
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("cluster: write checkpoint: %w", err)
	}
	// Sync before rename: the rename must never publish a name whose
	// bytes are still only in the page cache.
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("cluster: sync checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("cluster: close checkpoint: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("cluster: publish checkpoint: %w", err)
	}
	// Sync the directory after rename so the new directory entry itself
	// survives a crash.
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("cluster: open checkpoint dir: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("cluster: sync checkpoint dir: %w", err)
	}
	return nil
}

// RestoreFromFile loads a checkpoint written by FileCheckpointer into a
// structurally identical core server, returning the restored step count.
//
// Integrity: path is tried first, then the retained generation files
// newest-first; the first candidate that verifies (the checksum is
// validated before any weight is touched) wins. A torn or
// bit-flipped latest checkpoint therefore costs one generation of
// progress, not the run. No checkpoint files at all is not an error —
// it reports (0, false, nil) so callers can pass -resume unconditionally
// on first boot. Files present but none verifiable is an error: silently
// training from scratch is exactly the outcome a corrupted checkpoint
// must not produce.
func RestoreFromFile(path string, srv *core.Server) (steps int, restored bool, err error) {
	candidates := []string{path}
	matches, _ := filepath.Glob(path + ".g*")
	gens := make([]int, 0, len(matches))
	for _, m := range matches {
		if g, gerr := strconv.Atoi(strings.TrimPrefix(m, path+".g")); gerr == nil {
			gens = append(gens, g)
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(gens)))
	for _, g := range gens {
		candidates = append(candidates, genPath(path, g))
	}

	tried := 0
	var lastErr error
	for _, cand := range candidates {
		f, oerr := os.Open(cand)
		if os.IsNotExist(oerr) {
			continue
		}
		if oerr != nil {
			tried++
			lastErr = fmt.Errorf("cluster: open checkpoint: %w", oerr)
			continue
		}
		tried++
		lerr := srv.LoadState(f)
		f.Close()
		if lerr == nil {
			return srv.Steps(), true, nil
		}
		lastErr = lerr
	}
	if tried == 0 {
		return 0, false, nil
	}
	return 0, false, fmt.Errorf("cluster: no checkpoint generation verified (%d candidates): %w", tried, lastErr)
}

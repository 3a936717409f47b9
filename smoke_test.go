package stsl_test

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// buildBinaries compiles every cmd/ and examples/ main package into one
// temp dir — the compile check that keeps the binaries from rotting now
// that they carry real flag surface (checkpoint, resume, retry).
func buildBinaries(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	cmd := exec.Command("go", "build", "-o", dir+string(os.PathSeparator),
		"./cmd/...", "./examples/...")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build ./cmd/... ./examples/...: %v\n%s", err, out)
	}
	var missing []string
	for _, name := range []string{
		"stsl-bench", "stsl-endsystem", "stsl-load", "stsl-privacy", "stsl-server", "stsl-train",
		"quickstart", "hospitals", "geodistributed",
	} {
		if _, err := os.Stat(bin(dir, name)); err != nil {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		t.Fatalf("go build ./cmd/... ./examples/... did not produce %s", strings.Join(missing, ", "))
	}
	return dir
}

func bin(dir, name string) string {
	if runtime.GOOS == "windows" {
		name += ".exe"
	}
	return filepath.Join(dir, name)
}

// TestSmokeBinaries builds everything and runs each example end to end,
// asserting exit 0 and non-empty output. The heavier geodistributed
// sweep (4 policies × sim + live) is skipped in -short mode.
func TestSmokeBinaries(t *testing.T) {
	dir := buildBinaries(t)
	examples := []struct {
		name  string
		heavy bool
	}{
		{name: "quickstart"},
		{name: "hospitals"},
		{name: "geodistributed", heavy: true},
	}
	for _, ex := range examples {
		ex := ex
		t.Run(ex.name, func(t *testing.T) {
			if ex.heavy && testing.Short() {
				t.Skipf("%s is a full policy sweep; skipped with -short", ex.name)
			}
			cmd := exec.Command(bin(dir, ex.name))
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("%s failed: %v\n%s", ex.name, err, out)
			}
			if len(bytes.TrimSpace(out)) == 0 {
				t.Fatalf("%s exited 0 but printed nothing", ex.name)
			}
			t.Logf("%s: %d bytes of output", ex.name, len(out))
		})
	}
}

// TestSmokeTCPDeployment runs the real binaries the README-style way:
// one stsl-server over loopback TCP with checkpointing enabled, two
// stsl-endsystem processes with retry enabled, tiny scale. Asserts every
// process exits 0, the server reports completed training, and the
// checkpoint file exists.
func TestSmokeTCPDeployment(t *testing.T) {
	dir := buildBinaries(t)
	ckptDir := t.TempDir()

	server := exec.Command(bin(dir, "stsl-server"),
		"-addr", "127.0.0.1:0", "-clients", "2", "-cut", "1", "-scale", "tiny",
		"-checkpoint-dir", ckptDir, "-checkpoint-every", "2",
		"-resume-grace", "5s", "-status-every", "0", "-admin-addr", "127.0.0.1:0")
	stdout, err := server.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var serverErr bytes.Buffer
	server.Stderr = &serverErr
	if err := server.Start(); err != nil {
		t.Fatal(err)
	}
	defer server.Process.Kill()

	// The server prints its bound address; scan for it so the test needs
	// no fixed port. The scanner goroutine owns the stdout buffer until
	// the pipe reaches EOF (scanDone), so reading it after the server
	// exits is race-free.
	var serverOut bytes.Buffer
	addrCh := make(chan string, 1)
	adminCh := make(chan string, 1)
	scanDone := make(chan struct{})
	go func() {
		defer close(scanDone)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			serverOut.WriteString(line + "\n")
			if i := strings.Index(line, "admin listener on http://"); i >= 0 {
				fields := strings.Fields(line[i+len("admin listener on http://"):])
				if len(fields) > 0 {
					select {
					case adminCh <- fields[0]:
					default:
					}
				}
			} else if i := strings.Index(line, "listening on "); i >= 0 {
				fields := strings.Fields(line[i+len("listening on "):])
				if len(fields) > 0 {
					select {
					case addrCh <- fields[0]:
					default:
					}
				}
			}
		}
	}()
	var addr string
	select {
	case addr = <-addrCh:
	case <-time.After(30 * time.Second):
		t.Fatalf("server never reported its address\n%s", serverErr.String())
	}
	// The server binds all interfaces by default; dial loopback.
	if strings.HasPrefix(addr, "[::]") {
		addr = "127.0.0.1" + strings.TrimPrefix(addr, "[::]")
	}
	var adminAddr string
	select {
	case adminAddr = <-adminCh:
	case <-time.After(10 * time.Second):
		t.Fatalf("server never reported its admin address\n%s", serverErr.String())
	}
	// Probe the admin surface while the server is live: the scrape and
	// status endpoints must answer before any client has joined.
	for _, path := range []string{"/metrics", "/statusz", "/trace"} {
		resp, err := http.Get("http://" + adminAddr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d\n%s", path, resp.StatusCode, body)
		}
		if path == "/metrics" && !strings.Contains(string(body), "stsl_uptime_seconds") {
			t.Fatalf("/metrics missing stsl_uptime_seconds:\n%s", body)
		}
	}

	clients := make([]*exec.Cmd, 2)
	outs := make([]*bytes.Buffer, 2)
	for i := range clients {
		outs[i] = &bytes.Buffer{}
		clients[i] = exec.Command(bin(dir, "stsl-endsystem"),
			"-addr", addr, "-id", fmt.Sprint(i), "-cut", "1", "-scale", "tiny",
			"-steps", "4", "-retry", "5")
		clients[i].Stdout = outs[i]
		clients[i].Stderr = outs[i]
		if err := clients[i].Start(); err != nil {
			t.Fatal(err)
		}
	}
	for i, c := range clients {
		if err := waitWithTimeout(c, time.Minute); err != nil {
			t.Fatalf("endsystem %d: %v\n%s\nserver:\n%s", i, err, outs[i].String(), serverErr.String())
		}
		if !strings.Contains(outs[i].String(), "done") {
			t.Fatalf("endsystem %d printed no completion line:\n%s", i, outs[i].String())
		}
	}
	if err := waitWithTimeout(server, time.Minute); err != nil {
		t.Fatalf("server: %v\n%s", err, serverErr.String())
	}
	select {
	case <-scanDone:
	case <-time.After(10 * time.Second):
		t.Fatal("server stdout never reached EOF")
	}
	if !strings.Contains(serverOut.String(), "training complete") {
		t.Fatalf("server never reported completion:\n%s\nstderr:\n%s", serverOut.String(), serverErr.String())
	}
	if _, err := os.Stat(filepath.Join(ckptDir, "server.ckpt")); err != nil {
		t.Fatalf("no checkpoint written: %v\nserver:\n%s", err, serverOut.String())
	}
}

// waitWithTimeout waits for a started process, killing it if it
// overstays.
func waitWithTimeout(cmd *exec.Cmd, d time.Duration) error {
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		cmd.Process.Kill()
		return fmt.Errorf("process did not exit within %v", d)
	}
}

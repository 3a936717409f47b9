package stsl_test

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// binaries are the main packages under cmd/, by binary name.
var binaries = []string{"stsl-bench", "stsl-endsystem", "stsl-load", "stsl-server", "stsl-train"}

var (
	buildOnce sync.Once
	binDir    string
	buildErr  error
)

// TestMain removes the directory buildBinaries fills, once every test
// that shares it has finished.
func TestMain(m *testing.M) {
	code := m.Run()
	if binDir != "" {
		os.RemoveAll(binDir)
	}
	os.Exit(code)
}

// buildBinaries compiles every cmd/ main package into one temp dir, once
// per test binary, and checks that exactly the expected binaries came
// out — the compile check that keeps the commands from rotting.
func buildBinaries(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		if binDir, buildErr = os.MkdirTemp("", "stsl-bin-"); buildErr != nil {
			return
		}
		out, err := exec.Command("go", "build", "-o", binDir+string(os.PathSeparator), "./cmd/...").CombinedOutput()
		if err != nil {
			buildErr = fmt.Errorf("go build ./cmd/...: %v\n%s", err, out)
			return
		}
		entries, err := os.ReadDir(binDir)
		if err != nil {
			buildErr = err
			return
		}
		var got, want []string
		for _, e := range entries {
			got = append(got, e.Name())
		}
		for _, name := range binaries {
			want = append(want, filepath.Base(bin(binDir, name)))
		}
		if !slices.Equal(got, want) {
			buildErr = fmt.Errorf("go build ./cmd/... produced %v, want %v", got, want)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return binDir
}

func bin(dir, name string) string {
	if runtime.GOOS == "windows" {
		name += ".exe"
	}
	return filepath.Join(dir, name)
}

// TestSmokeBinaries checks each command's flag surface: -h exits 0 and
// lists the flags, an unknown flag exits 2, and so does an -exp value
// stsl-bench does not know.
func TestSmokeBinaries(t *testing.T) {
	dir := buildBinaries(t)
	exitCode := func(t *testing.T, name string, args ...string) (int, string) {
		t.Helper()
		out, err := exec.Command(bin(dir, name), args...).CombinedOutput()
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			return exit.ExitCode(), string(out)
		}
		if err != nil {
			t.Fatalf("%s %v: %v", name, args, err)
		}
		return 0, string(out)
	}
	for _, name := range binaries {
		t.Run(name, func(t *testing.T) {
			code, out := exitCode(t, name, "-h")
			if code != 0 || !strings.Contains(out, "\n  -") {
				t.Fatalf("%s -h: exit %d, want 0 and a flag list:\n%s", name, code, out)
			}
			if code, out := exitCode(t, name, "-no-such-flag"); code != 2 {
				t.Fatalf("%s -no-such-flag: exit %d, want 2:\n%s", name, code, out)
			}
		})
	}
	code, out := exitCode(t, "stsl-bench", "-exp", "tabel1", "-scale", "tiny")
	if code != 2 || !strings.Contains(out, "table1|fig1|fig2|fig3|fig4|queue|attack|all") {
		t.Fatalf("stsl-bench -exp tabel1: exit %d, want 2 and the valid set:\n%s", code, out)
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

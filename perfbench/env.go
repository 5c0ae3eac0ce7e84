package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// envStamp identifies the machine, toolchain and code a result was
// measured with.
type envStamp struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go"`
	// Revision is the git commit, or "none" outside a git checkout;
	// Dirty marks uncommitted changes to tracked files. SourceDigest
	// hashes the Go sources and module files either way, so a result
	// from an exported tree still names its code.
	Revision     string `json:"revision"`
	Dirty        bool   `json:"dirty"`
	SourceDigest string `json:"source_digest"`
}

// incomparable says why two stamps come from different machines, or
// returns "" when their numbers may be diffed.
func (e envStamp) incomparable(o envStamp) string {
	switch {
	case e.CPU != o.CPU:
		return fmt.Sprintf("cpu %q vs %q", e.CPU, o.CPU)
	case e.NumCPU != o.NumCPU:
		return fmt.Sprintf("nproc %d vs %d", e.NumCPU, o.NumCPU)
	case e.GOMAXPROCS != o.GOMAXPROCS:
		return fmt.Sprintf("GOMAXPROCS %d vs %d", e.GOMAXPROCS, o.GOMAXPROCS)
	}
	return ""
}

func stamp() envStamp {
	e := envStamp{
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		CPU:          cpuModel(),
		GoVersion:    runtime.Version(),
		Revision:     "none",
		SourceDigest: sourceDigest("."),
	}
	if rev, err := gitOutput("rev-parse", "HEAD"); err == nil {
		e.Revision = strings.TrimSpace(rev)
		if st, err := gitOutput("status", "--porcelain", "--untracked-files=no"); err == nil {
			e.Dirty = strings.TrimSpace(st) != ""
		}
	}
	return e
}

// cpuModel reads the processor name from /proc/cpuinfo, falling back
// to GOARCH where that file does not exist.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// gitOutput runs git in the working directory without letting it climb
// above it, so a tree exported inside some other repository reports
// "none" rather than that repository's revision.
func gitOutput(args ...string) (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	cmd := exec.Command("git", args...)
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	out, err := cmd.Output()
	return string(out), err
}

// sourceDigest hashes every .go, go.mod and go.sum file under root,
// skipping hidden directories (build output lives in one).
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if n := d.Name(); strings.HasSuffix(n, ".go") || n == "go.mod" || n == "go.sum" {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(p))
		io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

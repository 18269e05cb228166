package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// environment is the record every number is read against: the same commit
// on another machine, Go version or filesystem is another baseline.
type environment struct {
	GitCommit  string `json:"git_commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	// NodeCPUs: node i is pinned to the i-th of these, round and round.
	NodeCPUs  []int  `json:"node_cpus"`
	CPUModel  string `json:"cpu_model"`
	Kernel    string `json:"kernel"`
	DataDirFS string `json:"data_dir_fs"`
	// Loopback: traffic crosses the host's loopback interface, not a link.
	Loopback bool `json:"loopback"`
	// SandboxFsync: fsync latency is this sandbox's, not a storage device's.
	SandboxFsync bool   `json:"sandbox_fsync"`
	Seed         int64  `json:"seed"`
	StreamHash   string `json:"op_stream_hash"`
}

func readEnvironment(scratch string, seed int64, streamHash string) environment {
	env := environment{
		GitCommit: "unknown", GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPUModel: "unknown", Kernel: "unknown", DataDirFS: fsType(scratch),
		Loopback: true, SandboxFsync: true, Seed: seed, StreamHash: streamHash,
	}
	var own cpuMask
	if own.get() == nil {
		env.NodeCPUs = own.cpus()
	}
	// A checkout that is not a git repository has no commit to name.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.GitCommit = strings.TrimSpace(string(out))
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(raw))
	}
	return env
}

// fsType names the filesystem holding dir: the mount in /proc/mounts with
// the longest mount point that prefixes it.
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	raw, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := "", "unknown"
	for _, line := range strings.Split(string(raw), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || mp == "/" || strings.HasPrefix(abs, mp+"/")) && len(mp) > len(best) {
			best, typ = mp, f[2]
		}
	}
	return typ
}

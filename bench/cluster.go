package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"github.com/canon-dht/canon/internal/canonstore"
	"github.com/canon-dht/canon/internal/netnode"
	"github.com/canon-dht/canon/internal/telemetry"
	"github.com/canon-dht/canon/internal/transport"
)

const (
	stabilizeEvery = time.Second
	readyDeadline  = 30 * time.Second
	readyProbes    = 32
	opTimeout      = 2 * time.Second
)

// procCluster is eight canond processes on loopback TCP.
type procCluster struct {
	ms    []member
	procs []*proc
	dir   string // parent of the nodes' data directories
}

type proc struct {
	cmd     *exec.Cmd
	dataDir string
	stderr  *tail
	exited  chan struct{}
}

// tail keeps the last bytes a process wrote, for error reports.
type tail struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tail) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > 2048 {
		t.buf = t.buf[len(t.buf)-2048:]
	}
	return len(p), nil
}

func (t *tail) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(bytes.TrimSpace(t.buf))
}

// freeAddr finds a free loopback port by binding :0 and releasing it.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// cpuMask is a CPU set as the kernel takes it: one bit per CPU, 1024 CPUs.
type cpuMask [16]uint64

func (m *cpuMask) get() error {
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m))); errno != 0 {
		return fmt.Errorf("sched_getaffinity: %w", errno)
	}
	return nil
}

func (m *cpuMask) set() error {
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m))); errno != 0 {
		return fmt.Errorf("sched_setaffinity: %w", errno)
	}
	return nil
}

// cpus lists the CPUs in the set, ascending.
func (m *cpuMask) cpus() []int {
	var out []int
	for i := 0; i < len(m)*64; i++ {
		if m[i/64]&(1<<(i%64)) != 0 {
			out = append(out, i)
		}
	}
	return out
}

// startOn starts cmd confined to the k-th of the CPUs this process may use,
// counting round and round. A child inherits the CPU set of the thread that
// forks it, so this goroutine's thread takes the one-CPU set for the length
// of the fork and then takes its own back.
//
// Nodes are pinned because it is measured to steady the numbers: with the
// eight nodes left to float over two CPUs, ten 22 s runs of lookup_hier
// spread ops_per_s by 13 % and p99_us by 16 %; pinned alternately, run
// between those same runs, by 8 % and 9 % (and each op cost the cluster
// 150 µs of CPU, not 220: a migration is a cold cache).
func startOn(cmd *exec.Cmd, k int) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var own, one cpuMask
	if err := own.get(); err != nil {
		return err
	}
	allowed := own.cpus()
	cpu := allowed[k%len(allowed)]
	one[cpu/64] = 1 << (cpu % 64)
	if err := one.set(); err != nil {
		return err
	}
	err := cmd.Start()
	if rerr := own.set(); err == nil {
		err = rerr
	}
	return err
}

// startProcs spawns the cluster, each node joining through node 0 only
// after the previous one reported that it had joined. scratch is the
// directory data dirs are created under. The returned cluster is running
// but not necessarily converged; call waitReady.
func startProcs(ctx context.Context, canond, scratch string, specs []nodeSpec, w *workload) (_ *procCluster, err error) {
	dir, err := os.MkdirTemp(scratch, "nodes-")
	if err != nil {
		return nil, err
	}
	c := &procCluster{dir: dir}
	defer func() {
		if err != nil {
			_ = c.close()
		}
	}()
	for i, spec := range specs {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		args := []string{
			"-listen", addr, "-domain", spec.Domain, "-id", strconv.FormatUint(spec.ID, 10),
			"-geometry", "crescendo", "-wire", "binary",
			"-successors", strconv.Itoa(successorList), "-stabilize", stabilizeEvery.String(),
			"-replicas", strconv.Itoa(w.replicas),
		}
		if i > 0 {
			args = append(args, "-join", c.ms[0].Addr)
		}
		p := &proc{stderr: &tail{}, exited: make(chan struct{})}
		if w.disk {
			p.dataDir = filepath.Join(dir, fmt.Sprintf("node%d", i))
			args = append(args, "-data-dir", p.dataDir)
		}
		p.cmd = exec.Command(canond, args...)
		p.cmd.Stderr = p.stderr
		// Own process group, and the kernel kills the node if this process
		// dies without running its deferred cleanup.
		p.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
		stdout, err := p.cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		if err := startOn(p.cmd, i); err != nil {
			return nil, fmt.Errorf("start node %d: %w", i, err)
		}
		c.procs = append(c.procs, p)
		c.ms = append(c.ms, member{nodeSpec: spec, Addr: addr})

		// canond prints its "listening" line once Join has returned.
		joined := make(chan struct{})
		go func() {
			sc := bufio.NewScanner(stdout)
			first := true
			for sc.Scan() {
				if first && strings.Contains(sc.Text(), "listening on") {
					close(joined)
					first = false
				}
			}
			_ = p.cmd.Wait()
			close(p.exited)
		}()
		select {
		case <-joined:
		case <-p.exited:
			return nil, fmt.Errorf("node %d (%s) exited before joining: %s", i, addr, p.stderr)
		case <-time.After(readyDeadline):
			return nil, fmt.Errorf("node %d (%s) did not join within %v: %s", i, addr, readyDeadline, p.stderr)
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return c, nil
}

// kill SIGKILLs every node's process group and waits for the processes.
func (c *procCluster) kill() {
	for _, p := range c.procs {
		if p.cmd.Process != nil {
			_ = syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL)
		}
	}
	for _, p := range c.procs {
		<-p.exited
	}
}

// close kills the nodes and removes their data directories.
func (c *procCluster) close() error {
	c.kill()
	return os.RemoveAll(c.dir)
}

// cpuTicks sums utime+stime over the nodes, in clock ticks (USER_HZ, 100
// per second on Linux).
func (c *procCluster) cpuTicks() (uint64, error) {
	var total uint64
	for i, p := range c.procs {
		raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
		if err != nil {
			return 0, fmt.Errorf("node %d: %w", i, err)
		}
		// The command name may contain spaces; fields are counted after it.
		rest := raw[bytes.LastIndexByte(raw, ')')+1:]
		f := strings.Fields(string(rest))
		if len(f) < 13 {
			return 0, fmt.Errorf("node %d: short /proc stat", i)
		}
		ut, err1 := strconv.ParseUint(f[11], 10, 64)
		st, err2 := strconv.ParseUint(f[12], 10, 64)
		if err1 != nil || err2 != nil {
			return 0, fmt.Errorf("node %d: bad /proc stat", i)
		}
		total += ut + st
	}
	return total, nil
}

const ticksPerSecond = 100

// rssMB sums the nodes' peak resident set sizes (VmHWM).
func (c *procCluster) rssMB() float64 {
	var kb float64
	for _, p := range c.procs {
		raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
		if err != nil {
			continue
		}
		for _, line := range strings.Split(string(raw), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				v, _ := strconv.ParseFloat(f[1], 64)
				kb += v
			}
		}
	}
	return kb / 1024
}

// dataDirs lists the nodes' data directories (empty on Mem workloads).
func (c *procCluster) dataDirs() []string {
	var out []string
	for _, p := range c.procs {
		if p.dataDir != "" {
			out = append(out, p.dataDir)
		}
	}
	return out
}

// inprocCluster is the same topology inside this process: eight
// netnode.Node values over real loopback TCP transports, wired the way
// canond wires them, with the benchmark's span decorators at the transport
// and store seams.
type inprocCluster struct {
	ms     []member
	nodes  []*netnode.Node
	stores []canonstore.Store // the undecorated stores, for reading entries back
	dir    string
}

func startInproc(ctx context.Context, scratch string, specs []nodeSpec, w *workload, reg *telemetry.Registry, rec *recorder) (_ *inprocCluster, err error) {
	dir, err := os.MkdirTemp(scratch, "inproc-")
	if err != nil {
		return nil, err
	}
	c := &inprocCluster{dir: dir}
	defer func() {
		if err != nil {
			_ = c.close()
		}
	}()
	for i, spec := range specs {
		tcp, err := transport.ListenTCPOpts("127.0.0.1:0", transport.TCPOptions{Telemetry: reg})
		if err != nil {
			return nil, err
		}
		addr := tcp.Addr()
		var store canonstore.Store = canonstore.NewMem()
		if w.disk {
			store, err = canonstore.Open(filepath.Join(dir, fmt.Sprintf("node%d", i)), canonstore.Options{Telemetry: reg})
			if err != nil {
				_ = tcp.Close()
				return nil, err
			}
		}
		node, err := netnode.New(netnode.Config{
			Name: spec.Domain, ID: spec.ID, Geometry: netnode.GeometryCrescendo,
			Transport:         &tracedTransport{Transport: transport.WithTelemetry(tcp, reg), rec: rec},
			SuccessorListLen:  successorList,
			ReplicationFactor: w.replicas,
			Store:             &tracedStore{Store: store, rec: rec, node: addr},
			Telemetry:         reg,
		})
		if err != nil {
			_ = tcp.Close()
			_ = store.Close()
			return nil, err
		}
		c.nodes = append(c.nodes, node)
		c.stores = append(c.stores, store)
		c.ms = append(c.ms, member{nodeSpec: spec, Addr: addr})
		contact := ""
		if i > 0 {
			contact = c.ms[0].Addr
		}
		jctx, cancel := context.WithTimeout(ctx, readyDeadline)
		err = node.Join(jctx, contact)
		cancel()
		if err != nil {
			return nil, fmt.Errorf("node %d join: %w", i, err)
		}
		node.Start(stabilizeEvery)
	}
	return c, nil
}

func (c *inprocCluster) close() error {
	var first error
	for _, n := range c.nodes {
		if err := n.Close(); err != nil && first == nil {
			first = err
		}
	}
	if err := os.RemoveAll(c.dir); err != nil && first == nil {
		first = err
	}
	return first
}

// waitReady polls until the cluster has converged: every node's level-0
// successor list is full, and a fixed set of probe keys resolves to the
// oracle's owner through every node, at every level of that node's chain.
// It names the node that lagged when the deadline passes.
func waitReady(ctx context.Context, cl *netnode.Client, ms []member) error {
	deadline := time.Now().Add(readyDeadline)
	want := min(successorList, len(ms)-1)
	var lag string
	for {
		lag = ""
		for i, m := range ms {
			cctx, cancel := context.WithTimeout(ctx, opTimeout)
			_, succs, err := cl.Neighbors(cctx, m.Addr, 0)
			cancel()
			if err != nil {
				lag = fmt.Sprintf("node %d (%s): neighbors: %v", i, m.Addr, err)
			} else if len(succs) < want {
				lag = fmt.Sprintf("node %d (%s): level-0 successor list has %d of %d entries", i, m.Addr, len(succs), want)
			}
			if lag != "" {
				break
			}
		}
		if lag == "" {
			lag = probeOwners(ctx, cl, ms)
		}
		if lag == "" {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster not ready after %v: %s", readyDeadline, lag)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// probeOwners returns "" when every probe agrees with the oracle, else a
// description of the first disagreement.
func probeOwners(ctx context.Context, cl *netnode.Client, ms []member) string {
	for k := 0; k < readyProbes; k++ {
		key := mix(uint64(k), 0x9e0b) & (1<<ringBits - 1)
		for i, m := range ms {
			prefix := prefixAt(m.Domain, k%3)
			want, _ := owner(ms, key, prefix)
			cctx, cancel := context.WithTimeout(ctx, opTimeout)
			got, _, err := cl.Lookup(cctx, m.Addr, key, prefix)
			cancel()
			if err != nil {
				return fmt.Sprintf("node %d (%s): probe lookup: %v", i, m.Addr, err)
			}
			if got.ID != want.ID {
				return fmt.Sprintf("node %d (%s): key %d in %q resolves to %d, want %d", i, m.Addr, key, prefix, got.ID, want.ID)
			}
		}
	}
	return ""
}

// reopen opens every data directory of a killed cluster in-process and
// returns the union of the entries found, keeping the highest version per
// key, plus the mean recovery (Open) time per directory.
func reopen(dirs []string) (map[uint64]canonstore.Entry, time.Duration, error) {
	union := make(map[uint64]canonstore.Entry)
	var total time.Duration
	for _, dir := range dirs {
		start := time.Now()
		d, err := canonstore.Open(dir, canonstore.Options{})
		total += time.Since(start)
		if err != nil {
			return nil, 0, fmt.Errorf("reopen %s: %w", dir, err)
		}
		d.ForEach(func(e canonstore.Entry) bool {
			if e.IsPointer() {
				return true
			}
			if cur, ok := union[e.Key]; !ok || e.Version > cur.Version {
				union[e.Key] = e
			}
			return true
		})
		if err := d.Close(); err != nil {
			return nil, 0, fmt.Errorf("close %s: %w", dir, err)
		}
	}
	if len(dirs) == 0 {
		return union, 0, nil
	}
	return union, total / time.Duration(len(dirs)), nil
}

// Command canonctl is the client for a running canond node: it pings nodes,
// resolves key ownership, stores and retrieves values, dumps neighbor
// state, and runs traced lookups that print the per-hop route tree.
//
// Usage:
//
//	canonctl -node host:port ping
//	canonctl -node host:port lookup <key> [domain]
//	canonctl -node host:port trace <key> [domain]
//	canonctl -node host:port put [-v] <key> <value> [storage [access]]
//	canonctl -node host:port get [-v] <key>
//	canonctl -node host:port neighbors <level>
//	canonctl -node host:port repair
//	canonctl status http://host:adminport/status
//
// Keys are unsigned integers (use canond's hash of your choice upstream).
// With -v, put and get also say where the answer came from: the forwarding
// hops the routed operation took and, for a get, the hierarchy level of the
// domain whose owner answered.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	canon "github.com/canon-dht/canon"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "canonctl:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("canonctl", flag.ContinueOnError)
	var (
		node    = fs.String("node", "127.0.0.1:7001", "address of a live node")
		timeout = fs.Duration("timeout", 10*time.Second, "operation timeout")
		raw     = fs.Bool("raw", false, "status: dump the raw JSON instead of a summary")
		verbose = fs.Bool("v", false, "put/get: also print the route (hops, and the level that answered a get); also accepted after the command")
	)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: canonctl [flags] ping|lookup|trace|put|get|neighbors|repair|status ...")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() < 1 {
		fs.Usage()
		return fmt.Errorf("a command is required")
	}
	tr, err := canon.ListenTCP("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer tr.Close()
	client := canon.NewLiveClient(tr)
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	cmd, rest := fs.Arg(0), fs.Args()[1:]
	if len(rest) > 0 && rest[0] == "-v" {
		*verbose, rest = true, rest[1:]
	}
	switch cmd {
	case "ping":
		info, err := client.Ping(ctx, *node)
		if err != nil {
			return err
		}
		fmt.Printf("node %d domain=%q addr=%s\n", info.ID, info.Name, info.Addr)
		return nil

	case "lookup":
		if len(rest) < 1 {
			return fmt.Errorf("lookup needs a key")
		}
		key, err := parseKey(rest[0])
		if err != nil {
			return err
		}
		domain := ""
		if len(rest) > 1 {
			domain = rest[1]
		}
		owner, hops, err := client.Lookup(ctx, *node, key, domain)
		if err != nil {
			return err
		}
		fmt.Printf("owner of %d in %q: node %d (%s) via %d hops\n", key, domain, owner.ID, owner.Addr, hops)
		return nil

	case "trace":
		if len(rest) < 1 {
			return fmt.Errorf("trace needs a key")
		}
		key, err := parseKey(rest[0])
		if err != nil {
			return err
		}
		domain := ""
		if len(rest) > 1 {
			domain = rest[1]
		}
		owner, tr2, err := client.TracedLookup(ctx, *node, key, domain, "")
		if err != nil {
			return err
		}
		printTrace(os.Stdout, owner, tr2)
		return nil

	case "put":
		if len(rest) < 2 {
			return fmt.Errorf("put needs a key and a value")
		}
		key, err := parseKey(rest[0])
		if err != nil {
			return err
		}
		storage, access := "", ""
		if len(rest) > 2 {
			storage = rest[2]
			access = storage
		}
		if len(rest) > 3 {
			access = rest[3]
		}
		route, err := client.PutRoute(ctx, *node, key, []byte(rest[1]), storage, access)
		if err != nil {
			return err
		}
		fmt.Printf("stored key %d (storage=%q access=%q)\n", key, storage, access)
		if *verbose {
			fmt.Printf("route: %d hops\n", route.Hops)
		}
		return nil

	case "get":
		if len(rest) < 1 {
			return fmt.Errorf("get needs a key")
		}
		key, err := parseKey(rest[0])
		if err != nil {
			return err
		}
		value, route, err := client.GetRoute(ctx, *node, key)
		if err != nil {
			return err
		}
		fmt.Printf("%s\n", value)
		if *verbose {
			fmt.Printf("route: %d hops, answered at level %d\n", route.Hops, route.Level)
		}
		return nil

	case "repair":
		stats, err := client.Repair(ctx, *node)
		if err != nil {
			return err
		}
		fmt.Printf("repair: %d partners, %d records pushed, %d pulled\n",
			stats.Partners, stats.Pushed, stats.Pulled)
		return nil

	case "status":
		if len(rest) < 1 {
			return fmt.Errorf("status needs the node's status URL (http://<canond -admin address>/status)")
		}
		return fetchStatus(ctx, rest[0], *raw)

	case "neighbors":
		level := 0
		if len(rest) > 0 {
			v, err := strconv.Atoi(rest[0])
			if err != nil {
				return fmt.Errorf("bad level %q: %w", rest[0], err)
			}
			level = v
		}
		pred, succs, err := client.Neighbors(ctx, *node, level)
		if err != nil {
			return err
		}
		fmt.Printf("level %d predecessor: %d (%s)\n", level, pred.ID, pred.Addr)
		for i, s := range succs {
			fmt.Printf("level %d successor[%d]: %d (%s)\n", level, i, s.ID, s.Addr)
		}
		return nil

	default:
		fs.Usage()
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// fetchStatus GETs a canond status endpoint and prints either the raw JSON
// or a human-readable summary including the node's resilience counters.
func fetchStatus(ctx context.Context, url string, raw bool) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status endpoint returned %s", resp.Status)
	}
	if raw {
		_, err = io.Copy(os.Stdout, resp.Body)
		return err
	}
	var st canon.LiveStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return fmt.Errorf("decode status: %w", err)
	}
	printStatus(os.Stdout, st)
	return nil
}

// printStatus renders a status snapshot for operators.
func printStatus(w io.Writer, st canon.LiveStatus) {
	fmt.Fprintf(w, "node %d domain=%q addr=%s\n", st.Info.ID, st.Info.Name, st.Info.Addr)
	for _, lv := range st.Levels {
		fmt.Fprintf(w, "level %d %-20q pred=%d succs=%d\n",
			lv.Level, lv.Prefix, lv.Predecessor.ID, len(lv.Successors))
	}
	fmt.Fprintf(w, "fingers: %d   stored keys: %d\n", len(st.Fingers), st.StoredKeys)
	var sent, recv int64
	for _, v := range st.Traffic.Sent {
		sent += v
	}
	for _, v := range st.Traffic.Received {
		recv += v
	}
	fmt.Fprintf(w, "traffic: sent=%d received=%d\n", sent, recv)
	fmt.Fprintf(w, "resilience: retries=%d failed-calls=%d routed-around=%d\n",
		st.Traffic.Retries, st.Traffic.FailedCalls, st.Traffic.RoutedAround)
	if len(st.Traffic.SuspectPeers) > 0 {
		addrs := make([]string, 0, len(st.Traffic.SuspectPeers))
		for a := range st.Traffic.SuspectPeers {
			addrs = append(addrs, a)
		}
		sort.Strings(addrs)
		for _, a := range addrs {
			fmt.Fprintf(w, "peer %s: %s\n", a, st.Traffic.SuspectPeers[a])
		}
	}
}

// printTrace renders a traced lookup as a per-hop tree: each line is one
// span, indented by hop, showing the node, its domain, the routing level the
// hop was taken at, and route-around / owner markers. A terminal node that
// is not the owner answered for it from its successor list, and says so.
// The trace stays queryable afterwards at the entry node's /debug/trace/<id>.
func printTrace(w io.Writer, owner canon.LiveInfo, tr canon.RouteTrace) {
	fmt.Fprintf(w, "trace %s key %d domain %q: owner node %d (%s) via %d hops\n",
		tr.ID, tr.Key, tr.Prefix, owner.ID, owner.Addr, tr.Hops())
	for i, s := range tr.Spans {
		indent := strings.Repeat("  ", i)
		branch := ""
		if i > 0 {
			branch = "└▶ "
		}
		detail := fmt.Sprintf("level %d", s.Level)
		switch {
		case s.Owner && s.Addr != owner.Addr:
			detail = fmt.Sprintf("answered for owner %d", owner.ID)
		case s.Owner:
			detail = "owner"
		}
		marks := ""
		if s.RouteAround {
			marks = "  (route-around)"
		}
		name := s.Name
		if name == "" {
			name = "<root>"
		}
		fmt.Fprintf(w, "  %s%shop %d  node %-12d %-24s [%s]%s\n",
			indent, branch, s.Hop, s.ID, name, detail, marks)
	}
	if len(tr.Spans) == 0 {
		fmt.Fprintln(w, "  (no spans returned — is the contacted node running a pre-telemetry build?)")
	}
}

func parseKey(s string) (uint64, error) {
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad key %q: %w", s, err)
	}
	return v, nil
}

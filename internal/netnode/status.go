package netnode

import (
	"encoding/json"
	"net/http"
)

// LevelStatus describes a node's neighbor state at one level of its chain.
type LevelStatus struct {
	Level       int    `json:"level"`
	Prefix      string `json:"prefix"`
	Predecessor Info   `json:"predecessor"`
	Successors  []Info `json:"successors"`
}

// Status is a JSON-serializable snapshot of a node's state for operations
// tooling (canond serves it at /status of its -admin HTTP endpoint).
type Status struct {
	Info       Info          `json:"info"`
	Levels     []LevelStatus `json:"levels"`
	Fingers    []Info        `json:"fingers"`
	StoredKeys int           `json:"storedKeys"`
	Traffic    Stats         `json:"traffic"`
}

// Status returns a snapshot of the node's state.
func (n *Node) Status() Status {
	st := Status{
		Info:       n.self,
		Fingers:    n.Fingers(),
		StoredKeys: n.StoredKeys(),
		Traffic:    n.Stats(),
	}
	for l := 0; l <= n.levels; l++ {
		st.Levels = append(st.Levels, LevelStatus{
			Level:       l,
			Prefix:      prefixAt(n.self.Name, l),
			Predecessor: n.Predecessor(l),
			Successors:  n.Successors(l),
		})
	}
	return st
}

// ServeHTTP implements http.Handler: GET returns the node's Status as JSON.
func (n *Node) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(n.Status()); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

var _ http.Handler = (*Node)(nil)

package swaprt

import (
	"encoding/json"
	"net"
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/swaprt/mgrstore"
)

// shortSpareRates is a decide request a peer can send that names two
// spares and one spare rate. It used to panic the durable manager
// (index out of range in DurableDecider.Decide) inside serveConn's
// goroutine, taking the whole process down.
const shortSpareRates = `{"kind":"decide","decide":{"epoch":0,"now":1,` +
	`"active_set":[0,1],"active_rates":[100,100],` +
	`"spare_set":[2,3],"spare_rates":[1000],"iter_time":1,"swap_time":0.1}}`

func newDurableManager(t testing.TB) *DurableDecider {
	t.Helper()
	d, err := NewDurableDecider(NewLocalDecider(core.Greedy()), mgrstore.NewMemStore(clock.Real{}), nil)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestManagerRejectsMalformedDecideRequest sends the request over a real
// connection: the manager must answer with an error and keep serving.
func TestManagerRejectsMalformedDecideRequest(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() { _ = ServeManager(ln, newDurableManager(t), nil) }()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte(shortSpareRates)); err != nil {
		t.Fatal(err)
	}
	var resp wireResponse
	if err := json.NewDecoder(conn).Decode(&resp); err != nil {
		t.Fatalf("no response to a malformed request: %v", err)
	}
	if !strings.Contains(resp.Error, "mismatched rate vectors") || resp.Decide != nil {
		t.Fatalf("response = %+v, want a mismatched-rate-vectors error", resp)
	}
	if err := (RemoteDecider{Addr: ln.Addr().String()}).Ping(); err != nil {
		t.Fatalf("manager stopped serving after a malformed request: %v", err)
	}
}

// FuzzServeManagerRequest feeds arbitrary JSON to the manager's request
// handler in front of a durable manager: whatever a peer sends, the
// answer is a decision or an error, never a panic.
func FuzzServeManagerRequest(f *testing.F) {
	for _, seed := range []string{
		shortSpareRates,
		`{"kind":"decide","decide":{"epoch":0,"now":1,"active_set":[0,1],"active_rates":[100,100],"spare_set":[2],"spare_rates":[1000],"iter_time":1,"swap_time":0.1}}`,
		`{"kind":"decide","decide":{"epoch":7,"active_set":[0,0],"active_rates":[-1,1e308],"spare_set":[0],"spare_rates":[0],"iter_time":1e-300,"swap_time":-1}}`,
		`{"kind":"decide"}`,
		`{"kind":"report","report":{"rank":-3,"now":-1,"rate":0}}`,
		`{"kind":"outcome","outcome":{"epoch":1,"committed":true,"new_set":[2,1],"quarantined":[3,3,-1]}}`,
		`{"kind":"outcome","outcome":{"epoch":18446744073709551615}}`,
		`{"kind":"ping"}`,
		`{"kind":"resize"}`,
		`{}`,
	} {
		f.Add([]byte(seed))
	}
	logf := func(string, ...any) {}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req wireRequest
		if json.Unmarshal(data, &req) != nil {
			return // serveConn drops the connection without an answer
		}
		resp := answer(req, newDurableManager(t), logf)
		if req.Kind == "decide" && resp.Error == "" && resp.Decide == nil {
			t.Fatalf("decide request %s got neither a decision nor an error", data)
		}
		if resp.Error != "" && resp.Decide != nil {
			t.Fatalf("request %s got both a decision and an error: %+v", data, resp)
		}
	})
}

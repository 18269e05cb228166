package transport_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/canon-dht/canon/internal/transport"
)

type echoBody struct {
	Text string
}

func (b echoBody) AppendBinary(buf []byte) ([]byte, error) { return append(buf, b.Text...), nil }

func (b *echoBody) UnmarshalBinary(data []byte) error {
	b.Text = string(data)
	return nil
}

func echoHandler(_ context.Context, _ string, msg transport.Message) (transport.Message, error) {
	var body echoBody
	if err := msg.Decode(&body); err != nil {
		return transport.Message{}, err
	}
	return transport.NewMessage("echo-reply", echoBody{Text: "echo:" + body.Text})
}

func TestMessageRoundTrip(t *testing.T) {
	msg, err := transport.NewMessage("test", echoBody{Text: "hi"})
	if err != nil {
		t.Fatal(err)
	}
	var out echoBody
	if err := msg.Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Text != "hi" {
		t.Errorf("decoded %q", out.Text)
	}
	// Error messages decode into errors.
	em := transport.ErrorMessage(errors.New("boom"))
	if err := em.Decode(&out); err == nil {
		t.Error("error message should fail Decode")
	}
	// Nil body is fine.
	m2, err := transport.NewMessage("empty", nil)
	if err != nil || m2.Type != "empty" || len(m2.Payload) != 0 {
		t.Errorf("empty message: %+v err %v", m2, err)
	}
	// A body without a binary codec is refused where the message is built,
	// and again by the envelope encoder for a hand-built Message.
	type plain struct{ X int }
	if _, err := transport.NewMessage("plain", plain{X: 1}); err == nil {
		t.Error("NewMessage accepted a body that is not a BinaryAppender")
	}
	if _, err := transport.AppendBinaryMessage(nil, transport.Message{Type: "plain", Body: plain{X: 1}}); err == nil {
		t.Error("AppendBinaryMessage encoded a body that is not a BinaryAppender")
	}
	// So is a destination that cannot decode one.
	if err := msg.Decode(&plain{}); err == nil {
		t.Error("Decode into a value that is not a BinaryUnmarshaler succeeded")
	}
}

func TestInMemCall(t *testing.T) {
	bus := transport.NewBus()
	a := bus.Endpoint("a")
	b := bus.Endpoint("b")
	b.Serve(echoHandler)

	msg, _ := transport.NewMessage("echo", echoBody{Text: "x"})
	resp, err := a.Call(context.Background(), "b", msg)
	if err != nil {
		t.Fatal(err)
	}
	var out echoBody
	if err := resp.Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Text != "echo:x" {
		t.Errorf("got %q", out.Text)
	}
}

func TestInMemUnreachable(t *testing.T) {
	bus := transport.NewBus()
	a := bus.Endpoint("a")
	if _, err := a.Call(context.Background(), "ghost", transport.Message{Type: "x"}); !errors.Is(err, transport.ErrUnreachable) {
		t.Errorf("call to missing endpoint: %v", err)
	}
	b := bus.Endpoint("b")
	b.Serve(echoHandler)
	bus.SetDown("b", true)
	if _, err := a.Call(context.Background(), "b", transport.Message{Type: "x"}); !errors.Is(err, transport.ErrUnreachable) {
		t.Errorf("call to down endpoint: %v", err)
	}
	bus.SetDown("b", false)
	msg, _ := transport.NewMessage("echo", echoBody{Text: "y"})
	if _, err := a.Call(context.Background(), "b", msg); err != nil {
		t.Errorf("call after recovery: %v", err)
	}
}

func TestInMemNoHandler(t *testing.T) {
	bus := transport.NewBus()
	a := bus.Endpoint("a")
	bus.Endpoint("b")
	if _, err := a.Call(context.Background(), "b", transport.Message{Type: "x"}); !errors.Is(err, transport.ErrNoHandler) {
		t.Errorf("expected ErrNoHandler, got %v", err)
	}
}

func TestInMemClosed(t *testing.T) {
	bus := transport.NewBus()
	a := bus.Endpoint("a")
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Call(context.Background(), "b", transport.Message{}); !errors.Is(err, transport.ErrClosed) {
		t.Errorf("call on closed endpoint: %v", err)
	}
}

func TestInMemHandlerError(t *testing.T) {
	bus := transport.NewBus()
	a := bus.Endpoint("a")
	b := bus.Endpoint("b")
	b.Serve(func(context.Context, string, transport.Message) (transport.Message, error) {
		return transport.Message{}, errors.New("handler blew up")
	})
	resp, err := a.Call(context.Background(), "b", transport.Message{Type: "x"})
	if err != nil {
		t.Fatal(err)
	}
	var out struct{}
	if derr := resp.Decode(&out); derr == nil {
		t.Error("handler error should surface through Decode")
	}
}

func TestInMemLatencyAndContext(t *testing.T) {
	bus := transport.NewBus()
	bus.SetLatency(func(from, to string) time.Duration { return 50 * time.Millisecond })
	a := bus.Endpoint("a")
	b := bus.Endpoint("b")
	b.Serve(echoHandler)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	msg, _ := transport.NewMessage("echo", echoBody{Text: "z"})
	if _, err := a.Call(ctx, "b", msg); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("expected deadline exceeded, got %v", err)
	}
}

func TestTCPRoundTrip(t *testing.T) {
	srv, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Serve(echoHandler)

	cli, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	for i := 0; i < 5; i++ {
		msg, _ := transport.NewMessage("echo", echoBody{Text: fmt.Sprintf("m%d", i)})
		resp, err := cli.Call(context.Background(), srv.Addr(), msg)
		if err != nil {
			t.Fatal(err)
		}
		var out echoBody
		if err := resp.Decode(&out); err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("echo:m%d", i); out.Text != want {
			t.Errorf("got %q, want %q", out.Text, want)
		}
	}
}

func TestTCPConcurrentCalls(t *testing.T) {
	srv, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Serve(echoHandler)

	cli, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			msg, _ := transport.NewMessage("echo", echoBody{Text: fmt.Sprintf("c%d", i)})
			resp, err := cli.Call(context.Background(), srv.Addr(), msg)
			if err != nil {
				errs <- err
				return
			}
			var out echoBody
			if err := resp.Decode(&out); err != nil {
				errs <- err
				return
			}
			if out.Text != fmt.Sprintf("echo:c%d", i) {
				errs <- fmt.Errorf("mismatched response %q", out.Text)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestTCPUnreachable(t *testing.T) {
	cli, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if _, err := cli.Call(ctx, "127.0.0.1:1", transport.Message{Type: "x"}); !errors.Is(err, transport.ErrUnreachable) {
		t.Errorf("expected unreachable, got %v", err)
	}
}

func TestTCPCloseIdempotentAndRejects(t *testing.T) {
	srv, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
	if _, err := srv.Call(context.Background(), "127.0.0.1:1", transport.Message{}); !errors.Is(err, transport.ErrClosed) {
		t.Errorf("call on closed transport: %v", err)
	}
}

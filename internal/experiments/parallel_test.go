package experiments

import (
	"context"
	"errors"
	"strings"
	"testing"
)

func TestRunParallelPreservesOrder(t *testing.T) {
	names := []string{"a", "bb", "ccc", "dddd", "eeeee"}
	got, err := runParallel(context.Background(), names, func(name string) (int, error) {
		return len(name), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range got {
		if n != i+1 {
			t.Fatalf("result[%d] = %d, want %d", i, n, i+1)
		}
	}
}

func TestRunParallelPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	_, err := runParallel(context.Background(), []string{"x", "y"}, func(name string) (int, error) {
		if name == "y" {
			return 0, boom
		}
		return 1, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestRunParallelAggregatesAllErrors(t *testing.T) {
	errA := errors.New("fail-a")
	errB := errors.New("fail-b")
	_, err := runParallel(context.Background(), []string{"a", "ok", "b"}, func(name string) (int, error) {
		switch name {
		case "a":
			return 0, errA
		case "b":
			return 0, errB
		}
		return 1, nil
	})
	if !errors.Is(err, errA) || !errors.Is(err, errB) {
		t.Fatalf("joined error %v missing one of the worker errors", err)
	}
}

func TestRunParallelRecoversPanicWithAttribution(t *testing.T) {
	got, err := runParallel(context.Background(), []string{"gzip", "explosive", "mcf"}, func(name string) (int, error) {
		if name == "explosive" {
			panic("kaboom")
		}
		return len(name), nil
	})
	if err == nil {
		t.Fatal("worker panic did not surface as an error")
	}
	if got != nil {
		t.Fatal("results returned despite failure")
	}
	msg := err.Error()
	if !strings.Contains(msg, `"explosive"`) || !strings.Contains(msg, "kaboom") {
		t.Fatalf("panic error lacks attribution: %v", err)
	}
	if strings.Contains(msg, `"gzip"`) || strings.Contains(msg, `"mcf"`) {
		t.Fatalf("panic error blames healthy workers: %v", err)
	}
}

func TestRunParallelCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := 0
	_, err := runParallel(ctx, []string{"a", "b", "c"}, func(string) (int, error) {
		ran++
		return 0, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran != 0 {
		t.Fatalf("%d workers ran after cancelation", ran)
	}
	// A canceled context is reported once, not once per skipped unit.
	if n := strings.Count(err.Error(), context.Canceled.Error()); n != 1 {
		t.Fatalf("context error reported %d times:\n%v", n, err)
	}
}

func TestRunParallelNilContext(t *testing.T) {
	got, err := runParallel(nil, []string{"x"}, func(string) (int, error) { return 7, nil })
	if err != nil || len(got) != 1 || got[0] != 7 {
		t.Fatalf("nil context run: %v %v", got, err)
	}
}

func TestRunParallelEmpty(t *testing.T) {
	got, err := runParallel(context.Background(), nil, func(string) (int, error) { return 0, nil })
	if err != nil || len(got) != 0 {
		t.Fatalf("empty input: %v %v", got, err)
	}
}

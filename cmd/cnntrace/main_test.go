package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gathernoc/internal/traffic"
)

func TestRunEmitsGatherTrace(t *testing.T) {
	var b bytes.Buffer
	err := run([]string{"-model", "alexnet", "-layer", "Conv3", "-rows", "4", "-cols", "4", "-mode", "gather"}, &b)
	if err != nil {
		t.Fatal(err)
	}
	events, err := traffic.Read(&b)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 16 {
		t.Fatalf("events = %d, want 16", len(events))
	}
	gathers := 0
	for _, e := range events {
		if e.Type == traffic.EventGather {
			gathers++
		}
	}
	if gathers != 4 {
		t.Errorf("gather initiations = %d, want 4 (one per row)", gathers)
	}
}

func TestRunEmitsRUTrace(t *testing.T) {
	var b bytes.Buffer
	if err := run([]string{"-mode", "ru", "-rows", "4", "-cols", "4"}, &b); err != nil {
		t.Fatal(err)
	}
	events, err := traffic.Read(&b)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		if e.Type != traffic.EventUnicast {
			t.Errorf("RU trace contains %s", e.Type)
		}
	}
}

func TestRunMultipleRoundsOrdered(t *testing.T) {
	var b bytes.Buffer
	if err := run([]string{"-rounds", "3", "-rows", "4", "-cols", "4"}, &b); err != nil {
		t.Fatal(err)
	}
	events, err := traffic.Read(&b)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 48 {
		t.Fatalf("events = %d, want 48", len(events))
	}
	last := int64(-1)
	for i, e := range events {
		if e.Cycle < last {
			t.Fatalf("event %d out of order", i)
		}
		last = e.Cycle
	}
}

func TestRunWritesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.jsonl")
	var b bytes.Buffer
	if err := run([]string{"-o", path, "-rows", "4", "-cols", "4"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "wrote 16 events") {
		t.Errorf("status line missing: %q", b.String())
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := traffic.Read(f)
	if err != nil || len(events) != 16 {
		t.Fatalf("file contents: %d events, err %v", len(events), err)
	}
}

func TestRunVGGModels(t *testing.T) {
	var b bytes.Buffer
	if err := run([]string{"-model", "vgg16", "-layer", "Conv2"}, &b); err != nil {
		t.Fatal(err)
	}
	b.Reset()
	if err := run([]string{"-model", "vgg16all", "-layer", "Conv3-2"}, &b); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadInputs(t *testing.T) {
	cases := []struct {
		args []string
		want error // nil: any error
	}{
		{[]string{"-model", "resnet"}, nil},
		{[]string{"-layer", "Conv99"}, nil},
		{[]string{"-mode", "teleport"}, nil},
		{[]string{"-rounds", "0"}, nil},
		{[]string{"-rows", "0"}, errMesh},
		{[]string{"-rows", "-2"}, errMesh},
		{[]string{"-cols", "0"}, errMesh},
		{[]string{"-tmac", "-1000"}, errTMAC},
	}
	for _, c := range cases {
		var b bytes.Buffer
		err := run(c.args, &b)
		switch {
		case err == nil:
			t.Errorf("args %v accepted", c.args)
		case c.want != nil && !errors.Is(err, c.want):
			t.Errorf("args %v: err %v, want %v", c.args, err, c.want)
		}
		if b.Len() != 0 {
			t.Errorf("args %v wrote %d bytes", c.args, b.Len())
		}
	}
}

package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"

	"repro/internal/guestos"
	"repro/internal/mem"
	"repro/internal/tracking"
)

// digest hashes a pass's simulated outputs - virtual durations, model
// counts, dirty-set sizes and hashes, image page counts, GC cycle stats -
// in grid order. Host time never enters it, so every pass of one seed
// yields the same digest.
type digest struct{ h hash.Hash64 }

func newDigest() *digest { return &digest{h: fnv.New64a()} }

// add hashes a label and its values.
func (d *digest) add(label string, vals ...int64) {
	d.h.Write([]byte(label))
	var b [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		d.h.Write(b[:])
	}
}

func (d *digest) sum() string { return fmt.Sprintf("%016x", d.h.Sum64()) }

// setHash is an order-independent hash of a page set: Collect returns
// each dirty page once, in no promised order.
func setHash(pages []mem.GVA) int64 {
	var h uint64
	for _, p := range pages {
		x := uint64(p.PageFloor()) + 0x9e3779b97f4a7c15
		x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
		x = (x ^ x>>27) * 0x94d049bb133111eb
		h += x ^ x>>31
	}
	return int64(h)
}

// timedTech is the Technique the benchmark calls and hands to criu and
// boehmgc, so every Init, Collect and Close is timed as a tracking span
// whoever makes the call. With verify set it also checks every Collect
// against a tracking.Verifier's ground truth.
type timedTech struct {
	tracking.Technique
	p    *pass
	proc *guestos.Process
	ver  *tracking.Verifier
}

func (t *timedTech) Init() error {
	err := t.p.r.call(spInit, t.Technique.Init)
	if err == nil && t.p.verify {
		t.ver = tracking.NewVerifier(t.proc)
	}
	return err
}

func (t *timedTech) Collect() ([]mem.GVA, error) {
	var got []mem.GVA
	r := t.p.r
	err := r.call(spCollect, func() error {
		var err error
		got, err = t.Technique.Collect()
		return err
	})
	if r.check(err) != nil {
		return nil, err
	}
	t.p.pages += int64(len(got))
	t.p.d.add("collect", int64(len(got)), setHash(got))
	if t.ver != nil {
		r.check(exact(t.ver, got))
		t.ver.Reset()
	}
	return got, nil
}

func (t *timedTech) Close() error {
	if t.ver != nil {
		t.ver.Stop()
		t.ver = nil
	}
	return t.p.r.call(spClose, t.Technique.Close)
}

// exact reports whether got is exactly the verifier's ground truth: no
// dirty page missing and none reported that was not written.
func exact(ver *tracking.Verifier, got []mem.GVA) error {
	if missing := ver.CheckComplete(got); len(missing) > 0 {
		return fmt.Errorf("collect missed %d dirty pages (first %v)", len(missing), missing[0])
	}
	seen := make(map[mem.GVA]struct{}, len(got))
	for _, p := range got {
		seen[p.PageFloor()] = struct{}{}
	}
	if n := len(ver.Truth()); len(seen) != n {
		return fmt.Errorf("collect reported %d pages, %d were written", len(seen), n)
	}
	return nil
}

package main

import "testing"

func TestRunDefaults(t *testing.T) {
	if err := run(72, 224, ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunCustomWFC(t *testing.T) {
	if err := run(72, 224, "28,25,25,10"); err != nil {
		t.Fatal(err)
	}
}

func TestRunBadWFCSpec(t *testing.T) {
	if err := run(72, 224, "1,2"); err == nil {
		t.Error("short -wfc spec must error")
	}
	if err := run(72, 224, "a,b,c,d"); err == nil {
		t.Error("non-numeric -wfc spec must error")
	}
}

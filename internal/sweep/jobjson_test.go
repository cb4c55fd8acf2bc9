package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
)

// fillJob sets every field of a Job to a distinct value: integers spread
// over their whole range (negative ones among them), alternating bools,
// and strings that hold characters json.Marshal escapes when special is
// set. Threads is left at zero when threads is false.
func fillJob(special, threads bool) Job {
	var j Job
	var n uint64
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		n++
		switch v.Kind() {
		case reflect.Struct:
			for i := range v.NumField() {
				fill(v.Field(i))
			}
		case reflect.Int, reflect.Int64:
			v.SetInt(int64(n * 0x9E3779B97F4A7C15))
		case reflect.Uint8:
			v.SetUint(n)
		case reflect.Uint64:
			v.SetUint(n * 0x9E3779B97F4A7C15)
		case reflect.Bool:
			v.SetBool(n%2 == 1)
		case reflect.String:
			if special {
				v.SetString(fmt.Sprintf(`<%d> & "é" \ `, n))
			} else {
				v.SetString(fmt.Sprintf("s%d", n))
			}
		default:
			panic("fillJob: field kind " + v.Kind().String() + " has no fill")
		}
	}
	fill(reflect.ValueOf(&j).Elem())
	if j.Seed > 0 {
		j.Seed = -j.Seed
	}
	if !threads {
		j.Config.Pipeline.Threads = 0
	}
	return j
}

// presetJobs returns every job of the Quick and Full presets and of Quick
// at Threads=2.
func presetJobs(t testing.TB) []Job {
	smt := Quick()
	smt.Threads = []int{2}
	var all []Job
	for _, spec := range []MatrixSpec{Quick(), Full(), smt} {
		jobs, err := spec.Jobs()
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, jobs...)
	}
	return all
}

// TestJobCodecMatchesJSON guards the job walks against drift: with every
// field of a Job holding a distinct value, AppendJob must write exactly
// what json.Marshal writes, and Scan.Job must read it back to an equal
// value on the fast path. A config field added to pipeline.Config or one
// of its nested structs and not to the walks fails here, as does a walk
// that names or orders a key differently from the struct.
func TestJobCodecMatchesJSON(t *testing.T) {
	jobs := []Job{fillJob(false, true), fillJob(false, false), fillJob(true, true), {}}
	jobs = append(jobs, presetJobs(t)...)
	for i, j := range jobs {
		want := mustMarshal(t, j)
		got := AppendJob(nil, &j)
		if !bytes.Equal(got, want) {
			t.Fatalf("job %d encoding moved:\n got %s\nwant %s", i, got, want)
		}
		s := NewScan(got)
		if back := s.Job(); !s.Done() || back != j {
			t.Fatalf("job %d: fast path read %s as %+v (done %v), want %+v", i, got, back, s.Done(), j)
		}
		canon := j.appendCanonical(nil)
		norm := j
		norm.Config.Pipeline = norm.Config.Pipeline.Normalize()
		if want := mustMarshal(t, norm); !bytes.Equal(canon, want) {
			t.Fatalf("job %d canonical encoding moved:\n got %s\nwant %s", i, canon, want)
		}
	}
	// An array encodes and reads back through AppendJobs and Scan.Jobs,
	// and so do null and [].
	arr := mustMarshal(t, jobs)
	if got := AppendJobs(nil, jobs); !bytes.Equal(got, arr) {
		t.Fatalf("job array encoding moved:\n got %s\nwant %s", got, arr)
	}
	s := NewScan(arr)
	if back := s.Jobs(); !s.Done() || !reflect.DeepEqual(back, jobs) {
		t.Fatalf("Scan.Jobs read %d jobs (done %v), want %d", len(back), s.Done(), len(jobs))
	}
	for _, in := range []string{"null", "[]"} {
		var want []Job
		if err := json.Unmarshal([]byte(in), &want); err != nil {
			t.Fatal(err)
		}
		s := NewScan([]byte(in))
		if back := s.Jobs(); !s.Done() || !reflect.DeepEqual(back, want) {
			t.Errorf("Scan.Jobs reads %s as %#v, encoding/json as %#v", in, back, want)
		}
		if got := AppendJobs(nil, want); string(got) != in {
			t.Errorf("AppendJobs writes %#v as %s, want %s", want, got, in)
		}
	}
}

// FuzzJobJSON holds the job decoder to encoding/json: whatever Scan.Job
// accepts, json.Unmarshal accepts and decodes alike, and the same holds
// for an array of that job through Scan.Jobs, so a decoder that falls back
// to encoding/json on a refusal accepts, refuses and decodes exactly as
// encoding/json does. A decoded job encodes as json.Marshal writes it. The
// seed corpus (testdata/fuzz/FuzzJobJSON) covers canonical Quick and
// Threads=2 jobs, whitespace, reordered and unknown keys, escaped strings,
// a null Config, -0, leading zeros, exponents, and int and uint8 overflow.
func FuzzJobJSON(f *testing.F) {
	jobs := presetJobs(f)
	f.Add(AppendJob(nil, &jobs[0]))
	f.Add(AppendJob(nil, &jobs[len(jobs)-1]))
	f.Fuzz(func(t *testing.T, b []byte) {
		var want Job
		werr := json.Unmarshal(b, &want)
		s := NewScan(b)
		if got := s.Job(); s.Done() && (werr != nil || got != want) {
			t.Fatalf("%q: fast path decodes %+v, json.Unmarshal %+v (err %v)", b, got, want, werr)
		}
		arr := append(append([]byte("["), b...), ']')
		var wantArr []Job
		aerr := json.Unmarshal(arr, &wantArr)
		s = NewScan(arr)
		if got := s.Jobs(); s.Done() && (aerr != nil || !reflect.DeepEqual(got, wantArr)) {
			t.Fatalf("%q: fast path decodes %+v, json.Unmarshal %+v (err %v)", arr, got, wantArr, aerr)
		}
		if werr != nil {
			return
		}
		if enc, ref := AppendJob(nil, &want), mustMarshal(t, want); !bytes.Equal(enc, ref) {
			t.Fatalf("%q re-encodes as\n%s\njson.Marshal writes\n%s", b, enc, ref)
		}
	})
}

// BenchmarkJobCodec times one Quick job through the codec and through
// encoding/json, each way.
func BenchmarkJobCodec(b *testing.B) {
	j := presetJobs(b)[0]
	enc := AppendJob(nil, &j)
	encoders := map[string]func() []byte{
		"codec": func() []byte { return AppendJob(make([]byte, 0, 2<<10), &j) },
		"json": func() []byte {
			b, _ := json.Marshal(j)
			return b
		},
	}
	decoders := map[string]func() Job{
		"codec": func() Job {
			s := NewScan(enc)
			return s.Job()
		},
		"json": func() Job {
			var back Job
			json.Unmarshal(enc, &back)
			return back
		},
	}
	for _, name := range []string{"codec", "json"} {
		b.Run("encode/"+name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(enc)))
			for b.Loop() {
				if len(encoders[name]()) != len(enc) {
					b.Fatal("encoding moved")
				}
			}
		})
	}
	for _, name := range []string{"codec", "json"} {
		b.Run("decode/"+name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(enc)))
			for b.Loop() {
				if decoders[name]() != j {
					b.Fatal("decoding moved")
				}
			}
		})
	}
}

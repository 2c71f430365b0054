module Trace = Gg_profile.Trace

let floats = Alcotest.(float 1e-9)
let ramp n = Array.init n (fun i -> float_of_int (n - i))

(* -- percentiles: ten samples beyond, or nothing ------------------------- *)

let test_ten_beyond () =
  Alcotest.(check (option (float 0.))) "999 samples: p99 has 9 beyond" None
    (Stats.percentile (ramp 999) 0.99);
  Alcotest.(check (option (float 0.)))
    "1000 samples: p99 is the 990th" (Some 990.)
    (Stats.percentile (ramp 1000) 0.99);
  Alcotest.(check int) "beyond p99 of 1000" 10 (Stats.beyond ~n:1000 0.99);
  Alcotest.(check bool) "p50 of 19" false (Stats.reportable ~n:19 0.5);
  Alcotest.(check bool) "p50 of 20" true (Stats.reportable ~n:20 0.5);
  Alcotest.(check bool) "no samples" false (Stats.reportable ~n:0 0.5)

let test_median () =
  Alcotest.check floats "odd count" 3. (Stats.median [| 5.; 1.; 3.; 4.; 2. |]);
  Alcotest.check floats "even count takes the lower middle" 2.
    (Stats.median [| 4.; 1.; 3.; 2. |])

(* -- self time from nested spans ----------------------------------------- *)

let ev track ph name ts =
  { Trace.ev_name = name; ev_cat = "t"; ev_ph = ph; ev_ts = ts;
    ev_track = track; ev_args = [] }

let test_self_time () =
  let events =
    [
      ev 0 Trace.B "a" 0.; ev 0 Trace.B "b" 1.;
      (* a second track interleaves without disturbing the first *)
      ev 1 Trace.B "x" 2.;
      ev 0 Trace.B "c" 2.; ev 0 Trace.E "c" 3.; ev 0 Trace.E "b" 4.;
      ev 1 Trace.E "x" 9.;
      ev 0 Trace.B "d" 5.; ev 0 Trace.E "d" 7.; ev 0 Trace.E "a" 10.;
    ]
  in
  let sps = Stats.spans events in
  let find n = List.find (fun sp -> sp.Stats.sp_name = n) sps in
  Alcotest.check floats "a: 10 minus children b (3) and d (2)" 5.
    (find "a").Stats.sp_self_us;
  Alcotest.check floats "b: 3 minus grandchild-free child c (1)" 2.
    (find "b").Stats.sp_self_us;
  Alcotest.check floats "x on its own track" 7. (find "x").Stats.sp_self_us;
  Alcotest.(check (list string)) "c's enclosing spans" [ "b"; "a" ]
    (find "c").Stats.sp_path;
  let root = List.filter (fun sp -> sp.Stats.sp_track = 0) sps in
  Alcotest.check floats "self times of a tree sum to its root" 10.
    (List.fold_left (fun acc sp -> acc +. sp.Stats.sp_self_us) 0. root);
  let layer =
    Stats.layer_seconds
      ~layer_of:(fun sp -> if sp.Stats.sp_name = "x" then None else Some "all")
      sps
  in
  Alcotest.check floats "layer seconds" 10e-6 (layer "all");
  Alcotest.check floats "dropped span" 0. (layer "x");
  Alcotest.check_raises "unbalanced"
    (Invalid_argument "Stats.spans: unclosed span") (fun () ->
      ignore (Stats.spans [ ev 0 Trace.B "a" 0. ]))

let test_faster_half () =
  Alcotest.(check (list string)) "faster half, original order" [ "a"; "c" ]
    (Stats.faster_half [ ("a", 1.); ("b", 5.); ("c", 2.); ("d", 9.) ]);
  Alcotest.(check (list string)) "an odd count rounds up" [ "x"; "z" ]
    (Stats.faster_half [ ("x", 3.); ("y", 4.); ("z", 1.) ]);
  Alcotest.(check (list string)) "empty" [] (Stats.faster_half [])

(* -- the paired ratio ------------------------------------------------------ *)

let test_paired_ratio () =
  Alcotest.check floats "ratio of summed times, not mean of ratios" 1.5
    (Stats.paired_ratio_median [| [ (1., 1.); (5., 3.) ] |]);
  Alcotest.check floats "median over programs; empty programs skipped" 2.
    (Stats.paired_ratio_median
       [| [ (2., 1.) ]; []; [ (3., 1.) ]; [ (1., 1.) ] |]);
  Alcotest.check_raises "no pairs at all"
    (Invalid_argument "Stats.paired_ratio_median: no pairs") (fun () ->
      ignore (Stats.paired_ratio_median [| [] |]))

(* -- /proc parsing ----------------------------------------------------------- *)

let status =
  "Name:\tggccd.exe\nVmPeak:\t  812340 kB\nVmHWM:\t   22064 kB\n\
   VmRSS:\t   21012 kB\n"

let test_vmhwm () =
  Alcotest.(check (option int)) "VmHWM" (Some 22064) (Stats.vmhwm_kb status);
  Alcotest.(check (option int)) "absent" None (Stats.vmhwm_kb "Name:\tx\n");
  Alcotest.(check (option int)) "not kB" None (Stats.vmhwm_kb "VmHWM:\t12 MB\n")

let test_cpu_ticks () =
  let stat =
    "4242 (ggccd (a) b) S 1 2 3 4 5 6 7 8 9 10 150 25 0 0 20 0 3 0 100"
  in
  Alcotest.(check (option int)) "utime + stime past a spaced name" (Some 175)
    (Stats.cpu_ticks stat);
  Alcotest.(check (option int)) "garbage" None (Stats.cpu_ticks "4242 x")

let () =
  Alcotest.run "ledger"
    [
      ( "stats",
        [
          Alcotest.test_case "ten samples beyond" `Quick test_ten_beyond;
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "faster half" `Quick test_faster_half;
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "paired ratio" `Quick test_paired_ratio;
          Alcotest.test_case "vmhwm" `Quick test_vmhwm;
          Alcotest.test_case "cpu ticks" `Quick test_cpu_ticks;
        ] );
    ]

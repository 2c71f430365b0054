(* Pure helpers of the ledger benchmark: order statistics with the
   ten-samples-beyond rule, the paired GG/PCC ratio, self time from
   nested trace spans, and VmHWM parsing.  Kept free of I/O so the unit
   tests in test/ can pin each rule down. *)

module Trace = Gg_profile.Trace

(* -- order statistics ----------------------------------------------------- *)

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

(* nearest-rank quantile of a sorted array: the smallest sample with at
   least [q] of the samples at or below it *)
let quantile_sorted s q =
  let n = Array.length s in
  if n = 0 then invalid_arg "Stats.quantile: no samples";
  let k = int_of_float (Float.ceil (q *. float_of_int n)) in
  s.(max 0 (min (n - 1) (k - 1)))

let median a = quantile_sorted (sorted a) 0.5

(* samples strictly beyond the [q] quantile under the nearest-rank rule *)
let beyond ~n q = n - int_of_float (Float.ceil (q *. float_of_int n))

(* A tail percentile is only meaningful with at least ten samples beyond
   it: fewer, and one outlier moves it by a whole sample. *)
let min_beyond = 10
let reportable ~n q = n > 0 && beyond ~n q >= min_beyond

(* [Some v] when the quantile is reportable, else [None] *)
let percentile a q =
  if reportable ~n:(Array.length a) q then Some (quantile_sorted (sorted a) q)
  else None

let sum a = Array.fold_left ( +. ) 0. a

(* The items of the faster half (rounded up) of [(item, duration)]
   pairs, in their original order.  Contention from other tenants of a
   shared machine only ever adds time, and it comes in bursts that last
   seconds, so the faster half of a run's passes estimates what the code
   costs; the slower half mostly measures the neighbours. *)
let faster_half pairs =
  let n = List.length pairs in
  let keep = (n + 1) / 2 in
  let ranked =
    List.mapi (fun i (_, d) -> (d, i)) pairs |> List.sort compare
    |> List.filteri (fun k _ -> k < keep)
    |> List.map snd
  in
  List.filteri (fun i _ -> List.mem i ranked) pairs |> List.map fst

(* -- the paired ratio ----------------------------------------------------- *)

(* [pairs.(i)] holds the (numerator, denominator) times measured back to
   back on program [i] over every timed pass.  Each program's ratio is
   its summed numerator over its summed denominator, so drift shared by
   the two halves of a pair cancels; the result is the median over
   programs.  Programs with no samples are skipped. *)
let paired_ratio_median (pairs : (float * float) list array) =
  let ratios =
    Array.to_list pairs
    |> List.filter_map (fun ps ->
           let n = List.fold_left (fun acc (a, _) -> acc +. a) 0. ps in
           let d = List.fold_left (fun acc (_, b) -> acc +. b) 0. ps in
           if ps = [] || d <= 0. then None else Some (n /. d))
    |> Array.of_list
  in
  if ratios = [||] then invalid_arg "Stats.paired_ratio_median: no pairs";
  median ratios

(* -- self time from nested spans ----------------------------------------- *)

type span = {
  sp_name : string;
  sp_cat : string;
  sp_track : int;
  sp_path : string list;  (** enclosing span names, innermost first *)
  sp_total_us : float;
  sp_self_us : float;  (** total minus the time covered by child spans *)
}

(* Events are balanced and properly nested per track (the contract of
   [Trace.events]); tracks are independent, so each keeps its own stack.
   A child's whole duration is deducted from its parent's self time, so
   the self times of a root span and all its descendants sum exactly to
   the root's duration. *)
let spans (events : Trace.event list) =
  let stacks : (int, (string * string * float * float ref) list) Hashtbl.t =
    Hashtbl.create 4
  in
  let out = ref [] in
  List.iter
    (fun (ev : Trace.event) ->
      let stack =
        Option.value ~default:[] (Hashtbl.find_opt stacks ev.Trace.ev_track)
      in
      match ev.Trace.ev_ph with
      | Trace.B ->
        Hashtbl.replace stacks ev.Trace.ev_track
          ((ev.Trace.ev_name, ev.Trace.ev_cat, ev.Trace.ev_ts, ref 0.) :: stack)
      | Trace.E -> (
        match stack with
        | [] -> invalid_arg "Stats.spans: end edge without a begin"
        | (name, cat, t0, children) :: rest ->
          let total = ev.Trace.ev_ts -. t0 in
          (match rest with
          | (_, _, _, parent_children) :: _ ->
            parent_children := !parent_children +. total
          | [] -> ());
          Hashtbl.replace stacks ev.Trace.ev_track rest;
          out :=
            {
              sp_name = name;
              sp_cat = cat;
              sp_track = ev.Trace.ev_track;
              sp_path = List.map (fun (n, _, _, _) -> n) rest;
              sp_total_us = total;
              sp_self_us = total -. !children;
            }
            :: !out))
    events;
  Hashtbl.iter
    (fun _ st -> if st <> [] then invalid_arg "Stats.spans: unclosed span")
    stacks;
  List.rev !out

(* Self seconds per layer: [layer_of] names the layer a span's self
   time belongs to ([None] drops it). *)
let layer_seconds ~layer_of spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun sp ->
      match layer_of sp with
      | None -> ()
      | Some l ->
        let prev = Option.value ~default:0. (Hashtbl.find_opt tbl l) in
        Hashtbl.replace tbl l (prev +. (sp.sp_self_us /. 1e6)))
    spans;
  fun l -> Option.value ~default:0. (Hashtbl.find_opt tbl l)

(* -- /proc parsing ------------------------------------------------------- *)

(* The [VmHWM:] line of a /proc/<pid>/status document, in kB. *)
let vmhwm_kb status =
  String.split_on_char '\n' status
  |> List.find_map (fun line ->
         match String.index_opt line ':' with
         | Some i when String.sub line 0 i = "VmHWM" -> (
           let rest = String.sub line (i + 1) (String.length line - i - 1) in
           match
             String.split_on_char ' ' (String.trim rest)
             |> List.filter (( <> ) "")
           with
           | [ n; "kB" ] -> int_of_string_opt n
           | _ -> None)
         | _ -> None)

(* utime + stime clock ticks from a /proc/<pid>/stat line.  The command
   name (field 2) is parenthesised and may hold spaces, so fields are
   counted from the last ')'. *)
let cpu_ticks stat =
  match String.rindex_opt stat ')' with
  | None -> None
  | Some i -> (
    let fields =
      String.sub stat (i + 1) (String.length stat - i - 1)
      |> String.split_on_char ' '
      |> List.filter (( <> ) "")
    in
    (* after the name: state is field 3, utime 14, stime 15 *)
    match (List.nth_opt fields 11, List.nth_opt fields 12) with
    | Some u, Some s -> (
      match (int_of_string_opt u, int_of_string_opt s) with
      | Some u, Some s -> Some (u + s)
      | _ -> None)
    | _ -> None)

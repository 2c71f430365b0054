open Import
module Profile = Gg_profile.Profile

let default_dir () =
  match Sys.getenv_opt "GGCG_CACHE_DIR" with
  | Some d when d <> "" -> d
  | _ -> (
    match Sys.getenv_opt "XDG_CACHE_HOME" with
    | Some d when d <> "" -> Filename.concat d "ggcg"
    | _ -> (
      match Sys.getenv_opt "HOME" with
      | Some h when h <> "" ->
        Filename.concat (Filename.concat h ".cache") "ggcg"
      | _ -> Filename.concat (Filename.get_temp_dir_name ()) "ggcg-cache"))

(* profiled tables are keyed by the profile digest on top of the
   (target, grammar digest) key, so one grammar can keep one entry per
   workload profile *)
let entry_path ?dir ?(target = "vax") profile_digest (g : Grammar.t) =
  let dir = match dir with Some d -> d | None -> default_dir () in
  let p = match profile_digest with Some d -> "-p" ^ d | None -> "" in
  Filename.concat dir
    (Fmt.str "tables-%s-%s%s.tbl" target (Grammar.digest g) p)

let path ?dir ?target ?profile g =
  entry_path ?dir ?target (Option.map Heat.digest profile) g

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

let load ?dir ?target ?profile (g : Grammar.t) =
  let file = path ?dir ?target ?profile g in
  if not (Sys.file_exists file) then None
  else
    match
      Gg_profile.Trace.phase "tables.load" (fun () ->
          Packed.load ?profile g file)
    with
    | t -> Some t
    | exception (Failure _ | Sys_error _) -> None

let store ?dir ?target (g : Grammar.t) (t : Packed.t) =
  let file = entry_path ?dir ?target t.Packed.profile_digest g in
  try
    mkdir_p (Filename.dirname file);
    (* write-then-rename so concurrent compiles never see a torn file *)
    let tmp =
      Filename.temp_file ~temp_dir:(Filename.dirname file) "tables-" ".tmp"
    in
    Packed.save t tmp;
    Sys.rename tmp file;
    true
  with Sys_error _ -> false

(* A profiled layout is proven cell-for-cell against the dense tables
   before anything uses or caches it; the profile-free layout is the
   one the test suite proves. *)
let build ?profile (g : Grammar.t) =
  match profile with
  | None ->
    Gg_profile.Trace.phase "tables.build" (fun () ->
        Packed.pack (Tables.build g))
  | Some profile ->
    let dense =
      Gg_profile.Trace.phase "tables.build" (fun () -> Tables.build g)
    in
    Gg_profile.Trace.phase "tables.specialize" (fun () ->
        let t = Packed.pack ~profile dense in
        match Packed.verify t dense with
        | Ok () -> t
        | Error m -> Fmt.failwith "profiled tables failed verification: %s" m)

let file_size file =
  match open_in_bin file with
  | ic ->
    let n = in_channel_length ic in
    close_in ic;
    n
  | exception Sys_error _ -> 0

(* [tables-<target>-<digest>.tbl] is a profile-free entry;
   [tables-<target>-<digest>-p<digest>.tbl] a profiled one.  Parsed
   from the filename alone so listing and eviction never open files. *)
type entry = {
  e_file : string;
  e_target : string;
  e_grammar_digest : string;
  e_profile_digest : string option;
  e_bytes : int;
}

let parse_name name =
  if
    not
      (String.starts_with ~prefix:"tables-" name
      && Filename.check_suffix name ".tbl")
  then None
  else
    let core =
      String.sub name 7 (String.length name - 7 - String.length ".tbl")
    in
    match String.split_on_char '-' core with
    | [ target; gdigest ] -> Some (target, gdigest, None)
    | [ target; gdigest; p ]
      when String.length p > 1 && p.[0] = 'p' ->
      Some (target, gdigest, Some (String.sub p 1 (String.length p - 1)))
    | _ -> None

let list ?dir () =
  let dir = match dir with Some d -> d | None -> default_dir () in
  let entries = try Sys.readdir dir with Sys_error _ -> [||] in
  Array.to_list entries
  |> List.filter_map (fun name ->
         match parse_name name with
         | None -> None
         | Some (target, gdigest, pdigest) ->
           let file = Filename.concat dir name in
           Some
             {
               e_file = file;
               e_target = target;
               e_grammar_digest = gdigest;
               e_profile_digest = pdigest;
               e_bytes = file_size file;
             })
  |> List.sort compare

let clear_stale ?dir ?live_profiles (live : (string * Grammar.t) list) =
  let dir = match dir with Some d -> d | None -> default_dir () in
  let live_names =
    List.map
      (fun (target, g) -> Filename.basename (path ~dir ~target g))
      live
  in
  let live_keys =
    List.map (fun (target, g) -> (target, Grammar.digest g)) live
  in
  let entries = try Sys.readdir dir with Sys_error _ -> [||] in
  Array.to_list entries
  |> List.filter_map (fun name ->
         let stale_tbl =
           match parse_name name with
           | Some (target, gdigest, Some pdigest) ->
             (* a profiled entry is stale if its grammar is, or —
                when the caller declared which profiles are live — if
                its profile is not one of them *)
             (not (List.mem (target, gdigest) live_keys))
             || (match live_profiles with
                | None -> false
                | Some ps -> not (List.mem pdigest ps))
           | Some _ | None ->
             String.starts_with ~prefix:"tables-" name
             && Filename.check_suffix name ".tbl"
             && not (List.mem name live_names)
         in
         (* interrupted atomic stores leave tables-*.tmp behind *)
         let orphan_tmp =
           String.starts_with ~prefix:"tables-" name
           && Filename.check_suffix name ".tmp"
         in
         if not (stale_tbl || orphan_tmp) then None
         else
           let file = Filename.concat dir name in
           let size = file_size file in
           match Sys.remove file with
           | () -> Some (file, size)
           | exception Sys_error _ -> None)
  |> List.sort compare

let load_or_build ?dir ?target ?profile (g : Grammar.t) =
  let ctrs = Profile.counters () in
  match load ?dir ?target ?profile g with
  | Some t ->
    ctrs.Profile.cache_hits <- ctrs.Profile.cache_hits + 1;
    t
  | None ->
    ctrs.Profile.cache_misses <- ctrs.Profile.cache_misses + 1;
    let t = build ?profile g in
    ignore (store ?dir ?target g t);
    t

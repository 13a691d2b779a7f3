(* Tests for the bench-baseline registry: every committed BENCH_*.json
   still holds every field its entry's checks read, the cheap exact
   rows reproduce against the committed files, and a missing or
   malformed file is reported as such. *)

module Baseline = Symbad_baseline.Baseline
module Json = Symbad_obs.Json

(* the committed baselines live at the project root, one level above
   this test's directory (test/dune declares them as deps) *)
let root = ".."

let read path = In_channel.with_open_bin path In_channel.input_all

let entry name = List.find (fun b -> Baseline.name b = name) Baseline.all

let committed b =
  match Baseline.load ~dir:root b with
  | Ok j -> j
  | Error msg -> Alcotest.fail msg

let find path j =
  List.fold_left (fun acc k -> Option.bind acc (Json.member k)) (Some j) path

(* parsed independently of [Baseline.load], then walked path by path:
   the schema drift the registry exists to prevent *)
let holds_its_fields b () =
  let text = read (Filename.concat root (Baseline.file b)) in
  let j = Json.parse_exn (String.trim text) in
  Alcotest.(check bool) "the entry checks something" true
    (Baseline.fields b <> []);
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Baseline.file b ^ ": " ^ String.concat "/" p)
        true
        (find p j <> None))
    (Baseline.fields b);
  ignore (committed b)

let reproduces name () =
  let b = entry name in
  let outcomes = Baseline.check ~full:false ~tolerance:5. b (committed b) in
  Alcotest.(check bool) "some checks ran" true (outcomes <> []);
  List.iter
    (fun { Baseline.label; failure } ->
      Alcotest.(check (option string)) label None failure)
    outcomes

let with_dir f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "symbad_baseline_test_%d" (Unix.getpid ()))
  in
  let clean () =
    if Sys.file_exists dir then begin
      Array.iter
        (fun n -> Sys.remove (Filename.concat dir n))
        (Sys.readdir dir);
      Sys.rmdir dir
    end
  in
  clean ();
  Sys.mkdir dir 0o755;
  Fun.protect ~finally:clean (fun () -> f dir)

let write path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let load_errors () =
  with_dir @@ fun dir ->
  let b = entry "par" in
  let error_mentions what =
    match Baseline.load ~dir b with
    | Ok _ -> Alcotest.fail "loaded a bad baseline"
    | Error msg ->
        Alcotest.(check bool) msg true
          (contains msg what && contains msg (Baseline.file b))
  in
  error_mentions "missing";
  write (Filename.concat dir (Baseline.file b)) "{\"host_cores\":";
  error_mentions "malformed";
  (* well-formed JSON that lacks a field the checks read *)
  write (Filename.concat dir (Baseline.file b)) "{\"host_cores\":1}";
  error_mentions "malformed"

let resil_record_is_byte_identical () =
  with_dir @@ fun dir ->
  let out = Filename.concat dir "resil.json" in
  Alcotest.(check bool) "campaign passed" true
    (Baseline.record ~out (entry "resil"));
  Alcotest.(check string) "recorded = committed"
    (read (Filename.concat root "BENCH_resil.json"))
    (read out)

let registry_is_consistent () =
  let distinct f =
    let xs = List.map f Baseline.all in
    List.length (List.sort_uniq compare xs) = List.length xs
  in
  Alcotest.(check int) "six baselines" 6 (List.length Baseline.all);
  Alcotest.(check bool) "distinct names" true (distinct Baseline.name);
  Alcotest.(check bool) "distinct files" true (distinct Baseline.file);
  Alcotest.(check bool) "distinct modes" true (distinct Baseline.mode);
  List.iter
    (fun b ->
      Alcotest.(check (option string))
        (Baseline.mode b) (Some (Baseline.file b))
        (Option.map Baseline.file (Baseline.of_mode (Baseline.mode b))))
    Baseline.all

let suite =
  List.map
    (fun b ->
      Alcotest.test_case
        (Baseline.file b ^ " holds its fields")
        `Quick (holds_its_fields b))
    Baseline.all
  @ [
      Alcotest.test_case "registry is consistent" `Quick registry_is_consistent;
      Alcotest.test_case "missing and malformed files are errors" `Quick
        load_errors;
      Alcotest.test_case "lint exact rows reproduce" `Quick (reproduces "lint");
      Alcotest.test_case "resil exact rows reproduce" `Quick
        (reproduces "resil");
      Alcotest.test_case "resil record is byte-identical" `Quick
        resil_record_is_byte_identical;
    ]

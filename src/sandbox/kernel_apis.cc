// Real semantics of every sandbox API. Simplified Win32 prototypes (see
// api_ids.h) over the object namespace, with Table I success/failure
// encodings: handles in EAX, NULL/INVALID_HANDLE_VALUE plus GetLastError
// on failure, ERROR_* codes for the registry family.
#include "sandbox/kernel.h"
#include "support/strings.h"

namespace autovac::sandbox {
namespace {

// Last path component ("C:\dir\x.exe" -> "x.exe").
std::string BaseName(const std::string& path) {
  const size_t slash = path.find_last_of("\\/");
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

}  // namespace

void Kernel::Execute(ApiId id, const ApiSpec& spec, vm::Cpu& cpu,
                     trace::ApiCallRecord& record) {
  (void)spec;
  os::ObjectNamespace& ns = env_.ns();
  vm::Memory& mem = cpu.memory();
  const std::string& ident = record.resource_identifier;

  auto arg = [&](uint32_t i) { return cpu.Arg(i); };
  auto str = [&](uint32_t i) { return mem.ReadCString(cpu.Arg(i)); };
  auto ok = [&](uint32_t eax, uint32_t err = os::kErrorSuccess) {
    last_error_ = err;
    cpu.SetResult(eax);
    record.succeeded = true;
  };
  auto fail = [&](uint32_t eax, uint32_t err) {
    last_error_ = err;
    cpu.SetResult(eax);
    record.succeeded = false;
  };
  auto make_handle = [&](HandleKind kind, std::string identifier,
                         uint32_t value = 0) {
    HandleInfo info;
    info.kind = kind;
    info.identifier = std::move(identifier);
    info.value = value;
    return handles_.Create(std::move(info));
  };
  // Writes `text` into the caller's buffer and records its origin class.
  auto write_out = [&](uint32_t addr, const std::string& text,
                       uint32_t capacity, trace::DataOrigin origin) {
    const uint32_t written = mem.WriteCString(addr, text, capacity);
    if (written > 0) record.defines.push_back({addr, written, origin});
    return written;
  };

  switch (id) {
    // ================= file =================
    case ApiId::kCreateFileA: {
      const uint32_t disposition = arg(1);  // 1 CREATE_NEW, 2 ALWAYS, 3 OPEN
      if (ident.empty()) {
        fail(os::kInvalidHandleValue, os::kErrorFileNotFound);
        break;
      }
      os::NsResult result;
      if (disposition == 3) {
        result = ns.OpenFile(ident);
      } else {
        result = ns.CreateFile(ident, /*create_new=*/disposition == 1);
      }
      if (result.ok) {
        ok(make_handle(HandleKind::kFile, ident), result.error);
      } else {
        fail(os::kInvalidHandleValue, result.error);
      }
      break;
    }
    case ApiId::kOpenFileA: {
      const os::NsResult result = ns.OpenFile(ident);
      if (result.ok) {
        ok(make_handle(HandleKind::kFile, ident));
      } else {
        fail(os::kInvalidHandleValue, result.error);
      }
      break;
    }
    case ApiId::kReadFile: {
      HandleInfo* handle = handles_.Get(arg(0));
      const uint32_t buffer = arg(1);
      const uint32_t count = arg(2);
      if (handle == nullptr || handle->kind != HandleKind::kFile) {
        fail(os::kFalse, os::kErrorReadFault);
        break;
      }
      if (handle->fabricated) {  // forced-success handle: empty file
        ok(os::kTrue);
        break;
      }
      std::string content;
      const os::NsResult result = ns.ReadFile(handle->identifier, &content);
      if (!result.ok) {
        fail(os::kFalse, result.error);
        break;
      }
      std::string chunk = content.substr(
          std::min<size_t>(handle->cursor, content.size()),
          std::min<size_t>(count, 4096));
      handle->cursor += static_cast<uint32_t>(chunk.size());
      mem.WriteCString(buffer, chunk, count);
      record.defines.push_back({buffer,
                                static_cast<uint32_t>(chunk.size() + 1),
                                trace::DataOrigin::kEnvironment});
      pending_taint_outputs_.push_back(
          {buffer, static_cast<uint32_t>(chunk.size() + 1)});
      ok(os::kTrue);
      break;
    }
    case ApiId::kWriteFile: {
      HandleInfo* handle = handles_.Get(arg(0));
      const uint32_t buffer = arg(1);
      const uint32_t count = arg(2);
      if (handle == nullptr || handle->kind != HandleKind::kFile) {
        fail(os::kFalse, os::kErrorInvalidHandle);
        break;
      }
      if (handle->fabricated) {
        ok(os::kTrue);
        break;
      }
      std::string existing;
      ns.ReadFile(handle->identifier, &existing);
      std::string payload(mem.ReadCString(buffer, std::min<uint32_t>(count, 4096)));
      const os::NsResult result =
          ns.WriteFile(handle->identifier, existing + payload);
      if (result.ok) {
        ok(os::kTrue);
      } else {
        fail(os::kFalse, result.error);
      }
      break;
    }
    case ApiId::kDeleteFileA: {
      const os::NsResult result = ns.DeleteFile(ident);
      result.ok ? ok(os::kTrue) : fail(os::kFalse, result.error);
      break;
    }
    case ApiId::kCloseHandle: {
      handles_.Close(arg(0)) ? ok(os::kTrue)
                             : fail(os::kFalse, os::kErrorInvalidHandle);
      break;
    }
    case ApiId::kGetFileAttributesA: {
      if (ns.FileExists(ident)) {
        ok(0x20);  // FILE_ATTRIBUTE_ARCHIVE
      } else {
        fail(0xFFFFFFFF, os::kErrorFileNotFound);
      }
      break;
    }
    case ApiId::kSetFileAttributesA: {
      if (!ns.FileExists(ident)) {
        fail(os::kFalse, os::kErrorFileNotFound);
        break;
      }
      const os::FileObject* file = ns.FindFile(ident);
      if (file->system_owned ||
          (file->deny_mask & os::DenyBit(os::Operation::kWrite))) {
        fail(os::kFalse, os::kErrorAccessDenied);
      } else {
        ok(os::kTrue);
      }
      break;
    }
    case ApiId::kCopyFileA:
    case ApiId::kMoveFileA: {
      const std::string source = str(0);
      const std::string dest = str(1);
      std::string content;
      os::NsResult read = ns.ReadFile(source, &content);
      if (!read.ok) {
        fail(os::kFalse, read.error);
        break;
      }
      os::NsResult create = ns.CreateFile(dest, /*create_new=*/false);
      if (!create.ok) {
        fail(os::kFalse, create.error);
        break;
      }
      os::NsResult write = ns.WriteFile(dest, content);
      if (!write.ok) {
        fail(os::kFalse, write.error);
        break;
      }
      if (id == ApiId::kMoveFileA) ns.DeleteFile(source);
      ok(os::kTrue);
      break;
    }
    case ApiId::kGetTempFileNameA: {
      const uint32_t buffer = arg(0);
      const std::string name =
          StrFormat("%s\\tmp%04x.tmp", env_.profile().temp_dir.c_str(),
                    static_cast<unsigned>(env_.entropy().NextBelow(0x10000)));
      const uint32_t written =
          write_out(buffer, name, 260, trace::DataOrigin::kRandom);
      ns.CreateFile(name, /*create_new=*/false);
      ok(written);
      break;
    }
    case ApiId::kCreateDirectoryA: {
      const os::NsResult result = ns.CreateFile(ident, /*create_new=*/true);
      result.ok ? ok(os::kTrue) : fail(os::kFalse, result.error);
      break;
    }
    case ApiId::kGetFileSize: {
      const HandleInfo* handle = handles_.Get(arg(0));
      if (handle == nullptr || handle->kind != HandleKind::kFile) {
        fail(0xFFFFFFFF, os::kErrorInvalidHandle);
        break;
      }
      if (handle->fabricated) {
        ok(0);
        break;
      }
      std::string content;
      const os::NsResult result = ns.ReadFile(handle->identifier, &content);
      result.ok ? ok(static_cast<uint32_t>(content.size()))
                : fail(0xFFFFFFFF, result.error);
      break;
    }
    case ApiId::kFindFirstFileA: {
      if (ns.FileExists(ident)) {
        ok(make_handle(HandleKind::kFindFile, ident));
      } else {
        fail(os::kInvalidHandleValue, os::kErrorFileNotFound);
      }
      break;
    }

    // ================= synchronisation =================
    case ApiId::kCreateMutexA: {
      const os::NsResult result = ns.CreateMutex(ident, self_pid_);
      // CreateMutex succeeds even when the mutex exists; the infection
      // marker is GetLastError == ERROR_ALREADY_EXISTS.
      ok(make_handle(HandleKind::kMutex, ident), result.error);
      break;
    }
    case ApiId::kOpenMutexA: {
      const os::NsResult result = ns.OpenMutex(ident);
      if (result.ok) {
        ok(make_handle(HandleKind::kMutex, ident));
      } else {
        fail(os::kNullHandle, result.error);  // NULL + 0x02, Table I
      }
      break;
    }
    case ApiId::kReleaseMutex: {
      const HandleInfo* handle = handles_.Get(arg(0));
      if (handle == nullptr || handle->kind != HandleKind::kMutex) {
        fail(os::kFalse, os::kErrorInvalidHandle);
        break;
      }
      const os::NsResult result = ns.ReleaseMutex(handle->identifier);
      result.ok ? ok(os::kTrue) : fail(os::kFalse, result.error);
      break;
    }
    case ApiId::kWaitForSingleObject: {
      const HandleInfo* handle = handles_.Get(arg(0));
      if (handle == nullptr) {
        fail(0xFFFFFFFF, os::kErrorInvalidHandle);
        break;
      }
      ok(0);  // WAIT_OBJECT_0
      break;
    }

    // ================= registry =================
    case ApiId::kRegCreateKeyA: {
      const os::NsResult result = ns.CreateKey(ident);
      if (result.ok) {
        ok(make_handle(HandleKind::kRegKey, ident), result.error);
      } else {
        fail(os::kNullHandle, result.error);
      }
      break;
    }
    case ApiId::kRegOpenKeyA: {
      const os::NsResult result = ns.OpenKey(ident);
      if (result.ok) {
        ok(make_handle(HandleKind::kRegKey, ident));
      } else {
        fail(os::kNullHandle, result.error);
      }
      break;
    }
    case ApiId::kRegQueryValueExA: {
      const HandleInfo* handle = handles_.Get(arg(0));
      const std::string value_name = str(1);
      const uint32_t buffer = arg(2);
      const uint32_t capacity = arg(3);
      record.params[1] = "\"" + value_name + "\"";
      if (handle == nullptr || handle->kind != HandleKind::kRegKey) {
        fail(os::kErrorInvalidHandle, os::kErrorInvalidHandle);
        break;
      }
      if (handle->fabricated) {
        write_out(buffer, "", capacity, trace::DataOrigin::kEnvironment);
        ok(0);
        break;
      }
      std::string data;
      const os::NsResult result =
          ns.QueryValue(handle->identifier, value_name, &data);
      if (!result.ok) {
        fail(result.error, result.error);
        break;
      }
      const uint32_t written =
          write_out(buffer, data, capacity, trace::DataOrigin::kEnvironment);
      pending_taint_outputs_.push_back({buffer, written});
      ok(0);
      break;
    }
    case ApiId::kRegSetValueExA: {
      const HandleInfo* handle = handles_.Get(arg(0));
      const std::string value_name = str(1);
      const std::string data = str(2);
      record.params[1] = "\"" + value_name + "\"";
      record.params[2] = "\"" + data + "\"";
      if (handle == nullptr || handle->kind != HandleKind::kRegKey) {
        fail(os::kErrorInvalidHandle, os::kErrorInvalidHandle);
        break;
      }
      if (handle->fabricated) {
        ok(0);
        break;
      }
      const os::NsResult result =
          ns.SetValue(handle->identifier, value_name, data);
      result.ok ? ok(0) : fail(result.error, result.error);
      break;
    }
    case ApiId::kRegDeleteKeyA: {
      const os::NsResult result = ns.DeleteKey(ident);
      result.ok ? ok(0) : fail(result.error, result.error);
      break;
    }
    case ApiId::kRegCloseKey: {
      handles_.Close(arg(0)) ? ok(0)
                             : fail(os::kErrorInvalidHandle,
                                    os::kErrorInvalidHandle);
      break;
    }
    case ApiId::kRegEnumKeyA: {
      const HandleInfo* handle = handles_.Get(arg(0));
      const uint32_t index = arg(1);
      const uint32_t buffer = arg(2);
      const uint32_t capacity = arg(3);
      if (handle == nullptr || handle->kind != HandleKind::kRegKey) {
        fail(os::kErrorInvalidHandle, os::kErrorInvalidHandle);
        break;
      }
      const std::string prefix =
          os::ObjectNamespace::Canonical(handle->identifier) + "\\";
      std::vector<std::string> children;
      for (const std::string& path : ns.KeyPaths()) {
        const std::string canon = os::ObjectNamespace::Canonical(path);
        if (canon.size() > prefix.size() &&
            canon.compare(0, prefix.size(), prefix) == 0 &&
            canon.find('\\', prefix.size()) == std::string::npos) {
          children.push_back(path.substr(prefix.size()));
        }
      }
      if (index >= children.size()) {
        fail(os::kErrorNoMoreItems, os::kErrorNoMoreItems);
        break;
      }
      const uint32_t written = write_out(buffer, children[index], capacity,
                                         trace::DataOrigin::kEnvironment);
      pending_taint_outputs_.push_back({buffer, written});
      ok(0);
      break;
    }

    // ================= process =================
    case ApiId::kCreateProcessA: {
      if (!ns.FileExists(ident)) {
        fail(os::kFalse, os::kErrorFileNotFound);
        break;
      }
      ns.SpawnProcess(BaseName(ident), /*system_owned=*/false);
      ok(os::kTrue);
      break;
    }
    case ApiId::kOpenProcess: {
      const uint32_t pid = arg(1);
      const os::ProcessObject* process = ns.FindProcessByPid(pid);
      if (process == nullptr) {
        fail(os::kNullHandle, 87);  // ERROR_INVALID_PARAMETER
        break;
      }
      ok(make_handle(HandleKind::kProcess, process->image_name, pid));
      break;
    }
    case ApiId::kTerminateProcess: {
      const uint32_t handle_value = arg(0);
      if (handle_value == 0xFFFFFFFF) {  // pseudo-handle: self
        cpu.RequestExit();
        ok(os::kTrue);
        break;
      }
      const HandleInfo* handle = handles_.Get(handle_value);
      if (handle == nullptr || handle->kind != HandleKind::kProcess) {
        fail(os::kFalse, os::kErrorInvalidHandle);
        break;
      }
      if (handle->value == self_pid_) {
        cpu.RequestExit();
        ok(os::kTrue);
        break;
      }
      const os::NsResult result = ns.KillProcess(handle->value);
      result.ok ? ok(os::kTrue) : fail(os::kFalse, result.error);
      break;
    }
    case ApiId::kExitProcess:
    case ApiId::kExitThread: {
      cpu.RequestExit();
      ok(0);
      break;
    }
    case ApiId::kTerminateThread: {
      cpu.RequestExit();  // single-thread model: the sample is its thread
      ok(os::kTrue);
      break;
    }
    case ApiId::kWriteProcessMemory:
    case ApiId::kCreateRemoteThread: {
      HandleInfo* handle = handles_.Get(arg(0));
      const std::string payload = str(1);
      if (handle == nullptr || handle->kind != HandleKind::kProcess) {
        fail(os::kFalse, os::kErrorInvalidHandle);
        break;
      }
      if (handle->fabricated) {
        ok(id == ApiId::kCreateRemoteThread
               ? make_handle(HandleKind::kThread, payload)
               : os::kTrue);
        break;
      }
      const os::NsResult result = ns.InjectPayload(handle->value, payload);
      if (!result.ok) {
        fail(os::kFalse, result.error);
        break;
      }
      ok(id == ApiId::kCreateRemoteThread
             ? make_handle(HandleKind::kThread, payload)
             : os::kTrue);
      break;
    }
    case ApiId::kReadProcessMemory: {
      const HandleInfo* handle = handles_.Get(arg(0));
      if (handle == nullptr || handle->kind != HandleKind::kProcess) {
        fail(os::kFalse, os::kErrorInvalidHandle);
        break;
      }
      ok(os::kTrue);
      break;
    }
    case ApiId::kVirtualAllocEx: {
      const HandleInfo* handle = handles_.Get(arg(0));
      if (handle == nullptr || handle->kind != HandleKind::kProcess) {
        fail(0, os::kErrorInvalidHandle);
        break;
      }
      ok(0x7FF00000);  // fake remote allocation
      break;
    }
    case ApiId::kCreateToolhelp32Snapshot: {
      ok(make_handle(HandleKind::kSnapshot, "toolhelp"));
      break;
    }
    case ApiId::kProcess32FindA: {
      const HandleInfo* handle = handles_.Get(arg(0));
      if (handle == nullptr || handle->kind != HandleKind::kSnapshot) {
        fail(0, os::kErrorInvalidHandle);
        break;
      }
      const os::ProcessObject* process = ns.FindProcessByName(ident);
      if (process == nullptr) {
        fail(0, os::kErrorFileNotFound);
        break;
      }
      ok(process->pid);
      break;
    }
    case ApiId::kGetCurrentProcessId: {
      ok(self_pid_);
      break;
    }
    case ApiId::kGetCurrentProcess: {
      ok(0xFFFFFFFF);
      break;
    }

    // ================= services =================
    case ApiId::kOpenSCManagerA: {
      ok(make_handle(HandleKind::kScManager, "SCManager"));
      break;
    }
    case ApiId::kCreateServiceA: {
      const HandleInfo* scm = handles_.Get(arg(0));
      const std::string binary_path = str(2);
      record.params[2] = "\"" + binary_path + "\"";
      if (scm == nullptr || scm->kind != HandleKind::kScManager) {
        fail(os::kNullHandle, os::kErrorInvalidHandle);
        break;
      }
      const os::NsResult result = ns.CreateService(ident, binary_path);
      if (result.ok) {
        ok(make_handle(HandleKind::kService, ident));
      } else {
        fail(os::kNullHandle, result.error);
      }
      break;
    }
    case ApiId::kOpenServiceA: {
      const HandleInfo* scm = handles_.Get(arg(0));
      if (scm == nullptr || scm->kind != HandleKind::kScManager) {
        fail(os::kNullHandle, os::kErrorInvalidHandle);
        break;
      }
      const os::NsResult result = ns.OpenService(ident);
      if (result.ok) {
        ok(make_handle(HandleKind::kService, ident));
      } else {
        fail(os::kNullHandle, result.error);
      }
      break;
    }
    case ApiId::kStartServiceA: {
      const HandleInfo* handle = handles_.Get(arg(0));
      if (handle == nullptr || handle->kind != HandleKind::kService) {
        fail(os::kFalse, os::kErrorInvalidHandle);
        break;
      }
      if (handle->fabricated) {
        ok(os::kTrue);
        break;
      }
      const os::NsResult result = ns.StartService(handle->identifier);
      result.ok ? ok(os::kTrue) : fail(os::kFalse, result.error);
      break;
    }
    case ApiId::kDeleteService: {
      const HandleInfo* handle = handles_.Get(arg(0));
      if (handle == nullptr || handle->kind != HandleKind::kService) {
        fail(os::kFalse, os::kErrorInvalidHandle);
        break;
      }
      const os::NsResult result = ns.DeleteService(handle->identifier);
      result.ok ? ok(os::kTrue) : fail(os::kFalse, result.error);
      break;
    }
    case ApiId::kCloseServiceHandle: {
      handles_.Close(arg(0)) ? ok(os::kTrue)
                             : fail(os::kFalse, os::kErrorInvalidHandle);
      break;
    }

    // ================= windows =================
    case ApiId::kFindWindowA: {
      const std::string class_name = str(0);
      const std::string title = str(1);
      const os::NsResult result = ns.FindWindow(class_name, title);
      if (result.ok) {
        ok(make_handle(HandleKind::kWindow,
                       class_name.empty() ? title : class_name));
      } else {
        fail(os::kNullHandle, result.error);
      }
      break;
    }
    case ApiId::kRegisterClassA: {
      if (ns.IsWindowClassReserved(ident)) {
        fail(0, os::kErrorAccessDenied);
      } else {
        ok(0xC000 + (HashSeed(ident) & 0xFFF));
      }
      break;
    }
    case ApiId::kCreateWindowExA: {
      const std::string title = str(1);
      const os::NsResult result = ns.CreateWindow(ident, title, self_pid_);
      if (result.ok) {
        ok(make_handle(HandleKind::kWindow, ident));
      } else {
        fail(os::kNullHandle, result.error);
      }
      break;
    }
    case ApiId::kShowWindow: {
      handles_.Get(arg(0)) != nullptr
          ? ok(os::kTrue)
          : fail(os::kFalse, os::kErrorInvalidHandle);
      break;
    }

    // ================= libraries =================
    case ApiId::kLoadLibraryA: {
      const os::NsResult result = ns.LoadLibrary(ident);
      if (result.ok) {
        loaded_modules_.insert(os::ObjectNamespace::Canonical(ident));
        ok(make_handle(HandleKind::kModule, ident));
      } else {
        fail(os::kNullHandle, result.error);
      }
      break;
    }
    case ApiId::kGetModuleHandleA: {
      if (loaded_modules_.count(os::ObjectNamespace::Canonical(ident)) > 0 ||
          ns.LibraryAvailable(ident)) {
        ok(make_handle(HandleKind::kModule, ident));
      } else {
        fail(os::kNullHandle, os::kErrorModNotFound);
      }
      break;
    }
    case ApiId::kGetProcAddress: {
      const HandleInfo* handle = handles_.Get(arg(0));
      const std::string proc_name = str(1);
      record.params[1] = "\"" + proc_name + "\"";
      if (handle == nullptr || handle->kind != HandleKind::kModule) {
        fail(0, os::kErrorInvalidHandle);
        break;
      }
      ok(0x60000000 + (HashSeed(proc_name) & 0xFFFF));
      break;
    }
    case ApiId::kFreeLibrary: {
      handles_.Close(arg(0)) ? ok(os::kTrue)
                             : fail(os::kFalse, os::kErrorInvalidHandle);
      break;
    }

    // ================= system information =================
    case ApiId::kGetComputerNameA: {
      write_out(arg(0), env_.profile().computer_name, arg(1),
                trace::DataOrigin::kEnvironment);
      ok(os::kTrue);
      break;
    }
    case ApiId::kGetUserNameA: {
      write_out(arg(0), env_.profile().user_name, arg(1),
                trace::DataOrigin::kEnvironment);
      ok(os::kTrue);
      break;
    }
    case ApiId::kGetVolumeInformationA: {
      ok(env_.profile().volume_serial);
      break;
    }
    case ApiId::kGetSystemDirectoryA: {
      ok(write_out(arg(0), env_.profile().system_dir, arg(1),
                   trace::DataOrigin::kEnvironment));
      break;
    }
    case ApiId::kGetWindowsDirectoryA: {
      ok(write_out(arg(0), env_.profile().windows_dir, arg(1),
                   trace::DataOrigin::kEnvironment));
      break;
    }
    case ApiId::kGetTempPathA: {
      ok(write_out(arg(0), env_.profile().temp_dir, arg(1),
                   trace::DataOrigin::kEnvironment));
      break;
    }
    case ApiId::kGetVersion: {
      ok(env_.profile().os_version);
      break;
    }
    case ApiId::kGetTickCount: {
      ok(static_cast<uint32_t>(env_.clock().NowMillis() +
                               env_.entropy().NextBelow(997)));
      break;
    }
    case ApiId::kQueryPerformanceCounter: {
      const uint32_t buffer = arg(0);
      for (uint32_t i = 0; i < 8; ++i) {
        (void)mem.Write8(buffer + i,
                         static_cast<uint8_t>(env_.entropy().NextU64()));
      }
      record.defines.push_back({buffer, 8, trace::DataOrigin::kRandom});
      ok(os::kTrue);
      break;
    }
    case ApiId::kGetSystemTime: {
      const uint32_t buffer = arg(0);
      for (uint32_t i = 0; i < 16; ++i) {
        (void)mem.Write8(buffer + i,
                         static_cast<uint8_t>(env_.entropy().NextU64()));
      }
      record.defines.push_back({buffer, 16, trace::DataOrigin::kRandom});
      ok(0);
      break;
    }
    case ApiId::kGetLastError: {
      pending_eax_label_ = last_error_label_;
      cpu.SetResult(last_error_);
      record.succeeded = true;
      break;
    }
    case ApiId::kSetLastError: {
      last_error_ = arg(0);
      cpu.SetResult(0);
      record.succeeded = true;
      break;
    }
    case ApiId::kSleep: {
      const uint32_t millis = arg(0);
      env_.clock().AdvanceMillis(millis);
      cpu.ConsumeCycles(static_cast<uint64_t>(millis) * kCyclesPerMilli);
      ok(0);
      break;
    }
    case ApiId::kGetCommandLineA: {
      if (command_line_addr_ == 0) {
        command_line_addr_ = heap_cursor_;
        const std::string cmdline = "C:\\sample.exe";
        mem.WriteCString(command_line_addr_, cmdline, 0);
        heap_cursor_ += static_cast<uint32_t>(cmdline.size() + 1 + 15) & ~15u;
      }
      ok(command_line_addr_);
      break;
    }

    // ================= network =================
    case ApiId::kWSAStartup: {
      ok(0);
      break;
    }
    case ApiId::kSocket: {
      ok(make_handle(HandleKind::kSocket, "socket"));
      break;
    }
    case ApiId::kConnect: {
      const std::string host = str(1);
      record.params[1] = "\"" + host + "\"";
      ok(0);
      break;
    }
    case ApiId::kSend: {
      ok(arg(2));
      break;
    }
    case ApiId::kRecv: {
      const uint32_t buffer = arg(1);
      const uint32_t count = arg(2);
      const std::string payload = "ACK:" + ToUpper(env_.entropy().NextIdentifier(8));
      const uint32_t written =
          write_out(buffer, payload.substr(0, std::max<uint32_t>(count, 1) - 1),
                    count, trace::DataOrigin::kRandom);
      ok(written);
      break;
    }
    case ApiId::kClosesocket: {
      handles_.Close(arg(0)) ? ok(0) : fail(0xFFFFFFFF, os::kErrorInvalidHandle);
      break;
    }
    case ApiId::kGethostbyname: {
      const std::string host = str(0);
      record.params[0] = "\"" + host + "\"";
      ok(host.empty() ? 0 : 0x70000000);
      break;
    }
    case ApiId::kDnsQueryA: {
      const std::string host = str(0);
      record.params[0] = "\"" + host + "\"";
      ok(0);
      break;
    }
    case ApiId::kInternetOpenA: {
      ok(make_handle(HandleKind::kInternet, str(0)));
      break;
    }
    case ApiId::kInternetConnectA: {
      const std::string host = str(1);
      record.params[1] = "\"" + host + "\"";
      ok(make_handle(HandleKind::kInternet, host));
      break;
    }
    case ApiId::kHttpOpenRequestA: {
      const std::string path = str(1);
      record.params[1] = "\"" + path + "\"";
      ok(make_handle(HandleKind::kInternet, path));
      break;
    }
    case ApiId::kHttpSendRequestA: {
      handles_.Get(arg(0)) != nullptr
          ? ok(os::kTrue)
          : fail(os::kFalse, os::kErrorInvalidHandle);
      break;
    }
    case ApiId::kInternetReadFile: {
      const uint32_t buffer = arg(1);
      const uint32_t count = arg(2);
      const uint32_t written = write_out(buffer, "MZ\x90payload", count,
                                         trace::DataOrigin::kRandom);
      (void)written;
      ok(os::kTrue);
      break;
    }
    case ApiId::kURLDownloadToFileA: {
      const std::string url = str(0);
      record.params[0] = "\"" + url + "\"";
      os::NsResult create = ns.CreateFile(ident, /*create_new=*/false);
      if (!create.ok) {
        fail(0x800C0008, create.error);
        break;
      }
      ns.WriteFile(ident, "MZ<downloaded:" + url + ">");
      ok(0);
      break;
    }

    // ================= string helpers =================
    case ApiId::kLstrcpyA: {
      const uint32_t dest = arg(0);
      const uint32_t source = arg(1);
      const std::string text = mem.ReadCString(source);
      mem.WriteCString(dest, text, 0);
      record.flows.push_back({dest, static_cast<uint32_t>(text.size() + 1),
                              source, static_cast<uint32_t>(text.size() + 1)});
      record.params[1] = "\"" + text + "\"";
      ok(dest);
      break;
    }
    case ApiId::kLstrcatA: {
      const uint32_t dest = arg(0);
      const uint32_t source = arg(1);
      const std::string existing = mem.ReadCString(dest);
      const std::string text = mem.ReadCString(source);
      mem.WriteCString(dest + static_cast<uint32_t>(existing.size()), text, 0);
      record.flows.push_back(
          {dest + static_cast<uint32_t>(existing.size()),
           static_cast<uint32_t>(text.size() + 1), source,
           static_cast<uint32_t>(text.size() + 1)});
      record.params[1] = "\"" + text + "\"";
      ok(dest);
      break;
    }
    case ApiId::kLstrlenA: {
      const uint32_t source = arg(0);
      const std::string text = mem.ReadCString(source);
      pending_eax_sources_.push_back(
          {source, static_cast<uint32_t>(text.size() + 1)});
      ok(static_cast<uint32_t>(text.size()));
      break;
    }
    case ApiId::kLstrcmpA:
    case ApiId::kLstrcmpiA: {
      const uint32_t a_addr = arg(0);
      const uint32_t b_addr = arg(1);
      const std::string a = mem.ReadCString(a_addr);
      const std::string b = mem.ReadCString(b_addr);
      record.params[0] = "\"" + a + "\"";
      record.params[1] = "\"" + b + "\"";
      int comparison;
      if (id == ApiId::kLstrcmpiA) {
        const std::string la = ToLower(a);
        const std::string lb = ToLower(b);
        comparison = la.compare(lb);
      } else {
        comparison = a.compare(b);
      }
      pending_eax_sources_.push_back(
          {a_addr, static_cast<uint32_t>(a.size() + 1)});
      pending_eax_sources_.push_back(
          {b_addr, static_cast<uint32_t>(b.size() + 1)});
      ok(comparison < 0 ? static_cast<uint32_t>(-1)
                        : (comparison > 0 ? 1 : 0));
      break;
    }
    case ApiId::kWsprintfA: {
      ExecuteWsprintf(cpu, record);
      break;
    }
    case ApiId::kRtlComputeCrc32: {
      const uint32_t initial = arg(0);
      const uint32_t buffer = arg(1);
      const uint32_t count = arg(2);
      uint32_t crc = initial ^ 0xFFFFFFFFu;
      for (uint32_t i = 0; i < count; ++i) {
        uint32_t byte = 0;
        if (mem.Read8(buffer + i, &byte) != vm::MemFault::kNone) break;
        crc ^= byte;
        for (int bit = 0; bit < 8; ++bit) {
          crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1)));
        }
      }
      pending_eax_sources_.push_back({buffer, count});
      ok(crc ^ 0xFFFFFFFFu);
      break;
    }
    case ApiId::kItoa: {
      const uint32_t value = arg(0);
      const uint32_t dest = arg(1);
      const uint32_t radix = arg(2);
      const std::string text =
          radix == 16 ? StrFormat("%x", value)
                      : StrFormat("%u", value);
      mem.WriteCString(dest, text, 0);
      // The digits derive from the value argument's stack slot.
      record.flows.push_back({dest, static_cast<uint32_t>(text.size() + 1),
                              cpu.reg(vm::Reg::kEsp), 4});
      ok(dest);
      break;
    }
    case ApiId::kCharUpperA:
    case ApiId::kCharLowerA: {
      const uint32_t address = arg(0);
      const std::string text = mem.ReadCString(address);
      const std::string converted =
          id == ApiId::kCharUpperA ? ToUpper(text) : ToLower(text);
      mem.WriteCString(address, converted, 0);
      record.flows.push_back({address, static_cast<uint32_t>(text.size() + 1),
                              address, static_cast<uint32_t>(text.size() + 1)});
      ok(address);
      break;
    }

    // ================= misc =================
    case ApiId::kVirtualAlloc: {
      const uint32_t size = (arg(0) + 15u) & ~15u;
      if (heap_cursor_ + size >= vm::kHeapEnd) {
        fail(0, os::kErrorNotEnoughMemory);
        break;
      }
      const uint32_t address = heap_cursor_;
      heap_cursor_ += size;
      ok(address);
      break;
    }
    case ApiId::kWinExec: {
      // Strip arguments from the command line.
      std::string image = ident.substr(0, ident.find(' '));
      if (!ns.FileExists(image)) {
        fail(2, os::kErrorFileNotFound);
        break;
      }
      ns.SpawnProcess(BaseName(image), /*system_owned=*/false);
      ok(33);
      break;
    }
    case ApiId::kRand: {
      rand_state_ = rand_state_ * 214013u + 2531011u;
      ok((rand_state_ >> 16) & 0x7FFF);
      break;
    }
    case ApiId::kSrand: {
      rand_state_ = arg(0);
      ok(0);
      break;
    }

    case ApiId::kApiCount:
      fail(0, os::kErrorInvalidHandle);
      break;
  }
}

// wsprintfA(dest, fmt, ...): supports %s %d %u %x %c %%; literal segments
// flow from the format string (so static fragments trace back to .rdata),
// conversions flow from their stack slots or source buffers.
void Kernel::ExecuteWsprintf(vm::Cpu& cpu, trace::ApiCallRecord& record) {
  vm::Memory& mem = cpu.memory();
  const uint32_t dest = cpu.Arg(0);
  const uint32_t fmt_addr = cpu.Arg(1);
  const std::string fmt = mem.ReadCString(fmt_addr);
  record.params[1] = "\"" + fmt + "\"";

  std::string out;
  uint32_t next_arg = 2;
  size_t literal_start_fmt = 0;  // offset in fmt of current literal run
  size_t literal_start_out = 0;  // offset in out where that run began

  auto flush_literal = [&](size_t fmt_end) {
    const size_t length = out.size() - literal_start_out;
    if (length > 0) {
      record.flows.push_back(
          {dest + static_cast<uint32_t>(literal_start_out),
           static_cast<uint32_t>(length),
           fmt_addr + static_cast<uint32_t>(literal_start_fmt),
           static_cast<uint32_t>(length)});
    }
    (void)fmt_end;
  };

  for (size_t i = 0; i < fmt.size(); ++i) {
    if (fmt[i] != '%' || i + 1 >= fmt.size()) {
      out.push_back(fmt[i]);
      continue;
    }
    const char conv = fmt[i + 1];
    if (conv == '%') {
      out.push_back('%');
      ++i;
      continue;
    }
    // A conversion ends the current literal run.
    flush_literal(i);
    const uint32_t slot_addr = cpu.reg(vm::Reg::kEsp) + 4 * next_arg;
    const uint32_t value = cpu.Arg(next_arg);
    ++next_arg;
    ++i;
    std::string converted;
    switch (conv) {
      case 's': {
        converted = mem.ReadCString(value);
        record.flows.push_back(
            {dest + static_cast<uint32_t>(out.size()),
             static_cast<uint32_t>(converted.size()), value,
             static_cast<uint32_t>(converted.size() + 1)});
        record.params.push_back("\"" + converted + "\"");
        break;
      }
      case 'd':
        converted = StrFormat("%d", static_cast<int32_t>(value));
        record.flows.push_back({dest + static_cast<uint32_t>(out.size()),
                                static_cast<uint32_t>(converted.size()),
                                slot_addr, 4});
        record.params.push_back(StrFormat("%d", static_cast<int32_t>(value)));
        break;
      case 'u':
        converted = StrFormat("%u", value);
        record.flows.push_back({dest + static_cast<uint32_t>(out.size()),
                                static_cast<uint32_t>(converted.size()),
                                slot_addr, 4});
        record.params.push_back(StrFormat("%u", value));
        break;
      case 'x':
        converted = StrFormat("%x", value);
        record.flows.push_back({dest + static_cast<uint32_t>(out.size()),
                                static_cast<uint32_t>(converted.size()),
                                slot_addr, 4});
        record.params.push_back(StrFormat("%#x", value));
        break;
      case 'c':
        converted.push_back(static_cast<char>(value & 0xFF));
        record.flows.push_back({dest + static_cast<uint32_t>(out.size()), 1,
                                slot_addr, 4});
        break;
      default:
        converted = std::string("%") + conv;  // unknown: emit literally
        break;
    }
    out += converted;
    literal_start_fmt = i + 1;
    literal_start_out = out.size();
  }
  flush_literal(fmt.size());

  mem.WriteCString(dest, out, 0);
  last_error_ = os::kErrorSuccess;
  cpu.SetResult(static_cast<uint32_t>(out.size()));
  record.stack_args_used = static_cast<uint8_t>(next_arg);
  record.succeeded = true;
}

}  // namespace autovac::sandbox
